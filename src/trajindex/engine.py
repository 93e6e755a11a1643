"""The queryable index: periodic snapshots + compressed logs + rule metadata.

Construction discretizes nothing itself — it expects the regular,
integer-cell form produced by ``ingest.normalize`` (one position per active
instant per object, gaps allowed).  It then:

1. computes the dataset's maximum per-instant displacement (Euclidean,
   rounded up; the bound behind every pruning rule),
2. cuts each object's timeline into portions of ``period`` instants (at
   most ``MAX_PERIODS`` of them, else a ValueError names the bound),
   emitting spiral move codes and AA/D/RM/RNM events per portion (one
   vectorized pass over all cells; only portions with cells get a log),
3. compresses all logs jointly with Re-Pair and annotates every rule with
   span / displacement / relative bounding box,
4. builds one snapshot per multiple of the period: a table of the objects
   present and their cells, in the leaf order of a k2-tree over the cells.

The index file stores each fact once, each snapshot's cells as a k2-tree
that ``to_bytes`` encodes from the snapshot's table; no index holds a tree.
Loading derives the rest with the code that build uses: the rule tables
from the pairs, the snapshot and portion counts from t_max and the period,
each log's side-array offsets, AA/D flags, end instant, checkpoints,
block and log boxes and column states with their boxes from its symbols,
and each snapshot's table of ids and cells from its presence bitmap,
permutation and Q bitmap and the cells of its k2-tree, all trees decoded in
one numpy pass that rejects a tree no build writes.  Loading also checks
that every log's moves lead from its start (its AA position, else its
object's cell in the snapshot before) to its end (its D position, else its
object's cell in the snapshot after, when there is one), and places the log
boxes and the column states from those starts.
In memory the logs are one table indexed by log number, and every integer
table is held in the narrowest dtype for its range.

Queries follow the classic plan: anchor at the snapshot at or before the
instant that matters (or at an appearance event), reading its table (a
region test or a distance per present object, one lookup for an object's
cell), seek to the last log checkpoint at or before that instant, then
walk that portion's compressed log forward from there, jumping whole rules
whenever their metadata proves they cannot matter.  Every walk covers one
log, named by its number, which a query looks up once per candidate, or
reads off a candidate row: a trajectory starts a walk in each portion its
window meets, from that portion's snapshot or AA anchor.  A time slice,
time interval or kNN query reads a snapshot only at a snapshot instant;
between snapshots it takes its candidates from one source,
``LogStore.candidates``: numpy arrays of the ids, logs and placed boxes of
the logs that end at or after its instant or its window's start.  Past its
portion's first column, a slice or kNN query at t_q gets the latest
column's states, whose boxes hold every position their log visits until
the next column, and the logs that open with AA after the column (see
``logs``); any other query gets the logs of a portion with their log
boxes.  A slice keeps the rows whose box meets the region and walks each
from its log's start straight to t_q, then tests the position it reaches.
A time interval does the same in each portion its window meets, seeking to
the window's start, and its walk passes over every block whose box misses
the region (``use_mbr=False`` keeps every row and passes over no block).
A kNN query ranks the rows by the distance from its point to their boxes
and walks them in that order, each once, straight to the instant, until
the exact distances it has found give up its answers: on the benchmark's
kNN queries, for 5.5 answers each, 6.40 walks per query on appear-d30
(0.45 of them AA logs that open after the instant, which return at once)
and 6.85 on walk-d720, where ranking the snapshot's or the column's states
by a bound less what max_speed covers took 9.27 and 8.14.

A walk to one instant, the object's, the slice's and kNN's, is one plain
loop, ``LogStore.state_at``, that yields nothing; ``_forward_to`` clips the
symbol that straddles the instant with ``move_jump``.  A trajectory and a
time interval, which need every state, drive the ``LogStore.elements``
generator.  No query walks backward.  ``counters`` tracks how many symbols
each traversal family touched, which the pruning tests compare across a
time interval's debug flags (``use_mbr`` / ``use_er``).

Results are deterministic: object lists sort by id, nearest-neighbour
answers by (distance, id).
"""

from __future__ import annotations

import collections
import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import serial, spiral
from .geometry import (
    clip_region,
    contains,
    dist_point_point,
    region_in_region,
    regions_intersect,
)
from .grammar import (
    EV_AA,
    EV_D,
    EV_RM,
    EV_RNM,
    MOVE_BASE,
    RuleDictionary,
    repair_compress,
)
from .k2tree import MAX_K, MAX_SIDE, check_levels, decode_cells, encode, height_of
# no query calls move_back: it is imported only for perfbench/tracing.py to patch
from .logs import LogStore, move_back, move_jump, move_steps
from .snapshot import Snapshot

MAGIC = b"GCTI"
FORMAT_VERSION = 4
HEADER = MAGIC + FORMAT_VERSION.to_bytes(2, "little")
# the most whole periods the timeline may span: each lays out a snapshot and
# a portion, and so a file section of each, whether or not data falls in it
MAX_PERIODS = 1 << 24
# the params section's scalars in file order
PARAM_NAMES = ("k", "period", "side", "t_max", "max_speed", "raw_symbols", "n_objects")
# each section's field kinds (serial.FIELDS) in file order, for the values
# ``TrajectoryIndex._fields`` yields and ``from_bytes`` unpacks
SECTION_FIELDS = {
    "params": ("u32",) + ("u64",) * 6 + ("uints",),
    "dictionary": ("u32", "u32", "uints"),
    "log_streams": ("dac",),
    "log_events": ("uints", "uints", "dac_fixed", "dac_fixed"),
    "snapshots": ("bits", "bits", "bits", "uints", "bits"),
}


@dataclass
class IndexParams:
    period: int
    k: int
    side: int
    n_objects: int
    t_max: int
    max_speed: int
    raw_symbols: int


class TrajectoryIndex:
    def __init__(self, params, ids, snapshots, logs, rules):
        self.params = params
        self.ids = ids  # sorted original object ids; position = internal id
        self._ids = memoryview(ids)
        self.snapshots = snapshots
        self.logs = logs
        self.rules = rules
        self.counters = collections.Counter()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, series, period, k=2, side=None):
        """Build from normalized per-object segments.

        ``series``: {object id: [(start instant, [(x, y), ...]), ...]} with
        strictly increasing, non-overlapping segments per object.
        """
        if not (1 <= period < 2**63 and 2 <= k <= MAX_K):
            raise ValueError(
                "period %d or k %d out of range (period 1..2^63-1, k 2..%d)" % (period, k, MAX_K)
            )
        ids = sorted(series.keys())
        if ids and not (ids[0] >= 0 and ids[-1] < 2**63):
            raise ValueError("object ids must be integers in 0..2^63-1")
        obj, ts, xs, ys = _timelines(ids, series)
        t_max = int(ts.max(initial=0))
        max_coord = int(max(xs.max(initial=0), ys.max(initial=0)))
        if side is None:
            side = k
            while side <= max_coord:
                side *= k
        elif side <= max_coord:
            raise ValueError("side %d does not cover cell coordinate %d" % (side, max_coord))
        height_of(k, side)  # a power of k within the k2-tree's bounds

        n_portions, n_snaps = _layout(t_max, period)
        log_h, log_o, streams, d_vals, d_off, p_vals, p_off, max_move = _emit_logs(
            obj, ts, xs, ys, period, t_max
        )
        raw_symbols = sum(len(s) for s in streams)
        nt_base = MOVE_BASE + max_move + 1
        compressed, rule_pairs = repair_compress(streams, nt_base)
        rules = RuleDictionary.build(rule_pairs, max_move)

        syms_all = (
            np.concatenate(compressed) if compressed else np.zeros(0, dtype=np.int64)
        )
        # each portion's logs as a file stores them: ids, symbol counts, D and P entries
        sym_lens = np.array([len(s) for s in compressed], dtype=np.int64)
        portions = [(np.zeros(0, dtype=np.int64),) * 4] * n_portions
        hs, firsts = np.unique(log_h, return_index=True)
        ends = np.append(firsts[1:], len(log_h))
        for h, i, j in zip(hs.tolist(), firsts.tolist(), ends.tolist()):
            d, p = d_vals[d_off[i] : d_off[j]], p_vals[p_off[i] : p_off[j]]
            portions[h] = (log_o[i:j], sym_lens[i:j], d, p)

        params = IndexParams(
            period=period,
            k=k,
            side=side,
            n_objects=len(ids),
            t_max=t_max,
            max_speed=_max_speed(obj, ts, xs, ys),
            raw_symbols=raw_symbols,
        )
        logs = LogStore(rules, period, t_max, side, syms_all, portions)

        # every object at each snapshot instant, in id order
        at = np.flatnonzero(ts % period == 0)
        at = at[np.argsort(ts[at] // period, kind="stable")]
        cuts = np.searchsorted(ts[at] // period, np.arange(n_snaps + 1)).tolist()
        o_at, x_at, y_at = obj[at], xs[at], ys[at]
        snapshots = [
            Snapshot.build(o_at[i:j], x_at[i:j], y_at[i:j], k, side, len(ids))
            for i, j in zip(cuts[:-1], cuts[1:])
        ]
        logs.place(_log_starts(logs, snapshots, len(ids)))
        return cls(params, np.asarray(ids, dtype=np.int64), snapshots, logs, rules)

    # ------------------------------------------------------------------
    # id mapping and small helpers
    # ------------------------------------------------------------------

    def _oid(self, obj):
        ids = self._ids
        try:
            i = bisect_left(ids, obj)
        except TypeError:  # no integer id compares with obj
            i = len(ids)
        if i >= len(ids) or ids[i] != obj:
            raise KeyError("unknown object id: %r" % (obj,))
        return i

    def _orig(self, oid):
        return int(self.ids[oid])

    def _in_extent(self, t):
        return 0 <= t <= self.params.t_max

    # ------------------------------------------------------------------
    # object position (single instant)
    # ------------------------------------------------------------------

    def position_of(self, obj, t_q):
        """Position of an object at one instant, or None when absent."""
        oid = self._oid(obj)
        if not self._in_extent(t_q):
            return None
        h = t_q // self.params.period
        g = self.logs.find(h, oid)
        anchor = self._start(h, oid, g)
        return None if anchor is None else self._forward_to(g, *anchor, t_q)

    def _start(self, h, oid, g):
        """(instant, position) where oid's walk forward from snapshot h
        starts: the snapshot, or else the AA anchor of log g, its portion-h
        log (-1 for none); or None."""
        p = self.snapshots[h].find_object(oid)
        if p is not None:
            return h * self.params.period, p
        return self.logs.first_anchor(g)

    def _forward_to(self, g, t_c, p_c, t_q, counter="object_symbols"):
        """Position at t_q on log g, walked from (t_c, p_c) by
        ``LogStore.state_at``, with the symbol that straddles t_q clipped by
        ``move_jump``; None when its object is not active then.  The move
        symbols read add to ``counters[counter]``."""
        t_c, p_c, sym, n = self.logs.state_at(g, t_c, p_c, t_q)
        if sym is not None:
            t_c, p_c = move_jump(self.rules, p_c, t_c, t_q, sym)
        if n:
            self.counters[counter] += n
        return p_c if t_c == t_q else None

    # ------------------------------------------------------------------
    # trajectory (time window)
    # ------------------------------------------------------------------

    def trajectory(self, obj, t_begin, t_end):
        """(instant, position) pairs over [t_begin, t_end]; gaps omitted.

        Walks the object's log of each portion the window meets from the
        log's start.  A log that does not close with D ends on the next
        snapshot's cell, which that snapshot's portion then starts from."""
        oid = self._oid(obj)
        t_b = max(t_begin, 0)
        t_e = min(t_end, self.params.t_max)
        if t_b > t_e:
            return []
        out, span = [], self.rules.sym_span
        for h in range(t_b // self.params.period, t_e // self.params.period + 1):
            g = self.logs.find(h, oid)
            anchor = self._start(h, oid, g)
            if anchor is None:
                continue
            t_c, p_c = anchor
            if t_c > t_e:
                break
            if t_c >= t_b and (not out or out[-1][0] < t_c):
                out.append(anchor)
            for sym, t, p in self.logs.elements(g, t_c, p_c, t_e, seek=t_b):
                if sym is None or span[sym] == 1:  # an event or a move: one state
                    if t_b <= t <= t_e:
                        out.append((t, p))
                elif t >= t_b:  # a rule's steps, those before t_b dropped
                    steps = move_steps(self.rules, p_c, t_c, t_e, sym)
                    out.extend(steps if t_c >= t_b else (s for s in steps if s[0] >= t_b))
                t_c, p_c = t, p
        return out

    # ------------------------------------------------------------------
    # time slice (region at one instant)
    # ------------------------------------------------------------------

    def time_slice(self, region, t_q):
        """Objects inside a region at one instant, as sorted (id, position).

        At a snapshot instant the snapshot answers.  Anywhere else the
        candidates are the rows ``LogStore.candidates`` gives for t_q whose
        placed box meets the region: past the portion's first column, the
        column's states and the AA logs that open after it, else the
        portion's logs.  Each is walked forward from its log's start to
        t_q, and kept when its position there lies in the region."""
        r = clip_region(region, self.params.side)
        if r is None or not self._in_extent(t_q):
            return []
        d = self.params.period
        h = t_q // d
        if t_q % d == 0:
            return sorted((self._orig(o), p) for o, p in self.snapshots[h].objects_in_region(r))
        ids, logs, box = self.logs.candidates(t_q)
        hit = _meeting(box, r)
        answers = []
        for o, g in zip(ids[hit].tolist(), logs[hit].tolist()):
            p = self._forward_to(g, *self._start(h, o, g), t_q, "slice_symbols")
            if p is not None and contains(r, *p):
                answers.append((self._orig(o), p))
        return sorted(answers)

    # ------------------------------------------------------------------
    # time interval (region over a window)
    # ------------------------------------------------------------------

    def time_interval(self, region, t_begin, t_end, use_mbr=True, use_er=True):
        """Sorted ids of objects inside the region at any window instant.

        The candidates of each portion the window meets are the rows
        ``LogStore.candidates`` gives for it, its logs that end at or after
        t_b, whose placed box meets the region (without ``use_mbr``, every
        such log), each walked from its start and seeking to t_b.  The
        snapshot at t_b, when there is one, is read directly: the last
        snapshot starts no portion."""
        r = clip_region(region, self.params.side)
        t_b = max(t_begin, 0)
        t_e = min(t_end, self.params.t_max)
        if r is None or t_b > t_e:
            return []
        d = self.params.period
        logs = self.logs
        answers = set()
        if t_b % d == 0:
            answers.update(o for o, _p in self.snapshots[t_b // d].objects_in_region(r))
            h = t_b // d
        else:
            h = (t_b - 1) // d
        while h < logs.n_portions and h * d < t_e:
            t_last = min(t_e, logs.portion_end(h))
            ids, gs, box = logs.candidates(t_b, h)
            if use_mbr:
                hit = _meeting(box, r)
                ids, gs = ids[hit], gs[hit]
            for o, g in zip(ids.tolist(), gs.tolist()):
                if o in answers:
                    continue
                t_c, p_c = self._start(h, o, g)
                if (t_b <= t_c <= t_e and contains(r, *p_c)) or self._interval_scan(
                    g, t_c, p_c, t_b, t_e, t_last, r, use_mbr, use_er
                ):
                    answers.add(o)
            h += 1
        return sorted(self._orig(o) for o in answers)

    def _interval_scan(self, g, t_c, p_c, t_b, t_e, t_last, r, use_mbr, use_er):
        m_sp = self.params.max_speed
        rules = self.rules
        span, dx, dy, pairs = rules.sym_span, rules.sym_dx, rules.sym_dy, rules.sym_pairs
        nt_base = rules.nt_base
        x1, y1, x2, y2 = r
        x, y = p_c
        region = r if use_mbr else None
        walk = self.logs.elements(g, t_c, p_c, t_last, seek=t_b, region=region)
        n = 0  # move symbols and rule halves popped, counted once per scan
        try:
            for sym, t, p in walk:
                stack = [sym]  # None for an event or a block passed over
                while stack and t_c < t_last:
                    s = stack.pop()
                    if s is None:  # the event sets the state
                        t_c, (x, y) = t, p
                    else:
                        n += 1
                        if t_c + span[s] < t_b:  # fully before the window: pure skip
                            t_c, x, y = t_c + span[s], x + dx[s], y + dy[s]
                            continue
                        if use_mbr:
                            box = rules.box(s, x, y)
                            if not regions_intersect(box, r):
                                # cannot touch r anywhere inside: consume whole, even
                                # past t_last — the portion log bounds the span anyway
                                t_c, x, y = t_c + span[s], x + dx[s], y + dy[s]
                                continue
                            if s >= nt_base and region_in_region(box, r):
                                return True
                        if s >= nt_base:
                            stack.append(pairs[s, 1])
                            stack.append(pairs[s, 0])
                            continue
                        t_c, x, y = t_c + 1, x + dx[s], y + dy[s]
                    if t_b <= t_c <= t_e and x1 <= x <= x2 and y1 <= y <= y2:
                        return True
                    # r is out of reach by t_last: more than max_speed cells per
                    # instant away along an axis (Chebyshev distance)
                    if use_er and max(x1 - x, x - x2, y1 - y, y - y2) > m_sp * (t_last - t_c):
                        return False
            return False
        finally:
            self.counters["interval_symbols"] += n

    # ------------------------------------------------------------------
    # k nearest neighbours
    # ------------------------------------------------------------------

    def knn(self, count, point, t_q):
        """The ``count`` objects nearest ``point`` at t_q, as (id, distance).

        At a snapshot instant the snapshot answers: its table of present
        objects sorted by (distance, id), with no walk.  Anywhere else,
        distance browsing (Hjaltason & Samet, TODS 1999) over candidates
        ranked by a lower bound on their distance at t_q: the rows
        ``LogStore.candidates`` gives for t_q (past its portion's first
        column, the column's states and the AA logs that open after it,
        else the portion's logs, each ending at or after t_q), each bounded
        by the distance to its placed box, and sorted by (bound, id) in one
        numpy pass.  The candidates are walked in that order, each once,
        from its log's start and seeking to t_q (an AA log that opens after
        t_q returns at once), and its exact distance is pushed on a heap,
        which gives up its top once that is no more than the next
        candidate's (bound, id).  A box holds its log's position at t_q, so
        no bound exceeds its exact distance, and neighbours leave the heap
        in (distance, id) order.  Every distance equals ``math.hypot``'s,
        as the oracle's.
        """
        if count <= 0 or not self._in_extent(t_q) or not len(self.ids):
            return []
        h, dt = divmod(t_q, self.params.period)
        if not dt:
            near = sorted((d, o) for o, _p, d in self.snapshots[h].candidates_by_distance(*point))
            return [(self._orig(o), d) for d, o in near[:count]]
        ids, logs, box = self.logs.candidates(t_q)
        bound = _box_distance(*map(float, point), box)  # float: no narrow dtype wraps
        order = np.lexsort((ids, bound))
        ranked = bound[order].tolist(), ids[order].tolist(), logs[order].tolist()
        out, near = [], []  # near: min-heap of (distance, id) of the walked
        for bound, o, g in zip(*ranked):
            while near and len(out) < count and near[0] <= (bound, o):
                out.append(heapq.heappop(near))
            if len(out) == count:
                break
            p = self._forward_to(g, *self._start(h, o, g), t_q, "knn_symbols")
            if p is not None:
                heapq.heappush(near, (dist_point_point(point, p), o))
        out += heapq.nsmallest(count - len(out), near)
        return [(self._orig(o), d) for d, o in out]

    # ------------------------------------------------------------------
    # serialization & statistics
    # ------------------------------------------------------------------

    def save(self, path):
        blob = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(blob)

    def _fields(self):
        """(section, its field values) of every section, in file order."""
        yield "params", [getattr(self.params, name) for name in PARAM_NAMES] + [self.ids]
        rules = self.rules
        yield "dictionary", (rules.max_move_code, rules.n_rules, rules.pairs.reshape(-1))
        yield "log_streams", (self.logs.syms,)
        for h in range(self.logs.n_portions):
            yield "log_events", self.logs.portion(h)
        k, side = self.params.k, self.params.side
        for s in self.snapshots:
            yield "snapshots", (*encode(k, side, *s.xy.T), *s.file_fields())

    def _sections(self):
        """(stats component, payload) of every section, in file order."""
        for part, values in self._fields():
            yield part, serial.write_fields(SECTION_FIELDS[part], values)

    def to_bytes(self):
        parts = [HEADER]
        parts.extend(serial.wrap_section(payload) for _, payload in self._sections())
        return b"".join(parts)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    @classmethod
    def from_bytes(cls, blob):
        r = serial.ByteReader(blob)
        if r.raw(4) != MAGIC:
            raise serial.SerializationError("bad magic")
        version = int.from_bytes(r.raw(2), "little")
        if version != FORMAT_VERSION:
            raise serial.SerializationError("unsupported format version %d" % version)

        def section(part, h=None):
            what = part + " section" + ("" if h is None else " %d" % h)
            return serial.read_fields(r, SECTION_FIELDS[part], what)

        *scalars, ids = section("params")
        params = IndexParams(**dict(zip(PARAM_NAMES, scalars)))
        k, period, t_max = params.k, params.period, params.t_max
        n_objects = params.n_objects
        # t_max and period must fit int64, as every instant does, and k and
        # side must be within the k2-tree's bounds
        side_ok = params.side <= MAX_SIDE
        if not (2 <= k <= MAX_K and 1 <= period < 2**63 and t_max < 2**63 and side_ok):
            raise serial.SerializationError(
                "k %d, period %d, side %d or t_max %d out of range"
                % (k, period, params.side, t_max)
            )
        if len(ids) != n_objects or not _increasing_ids(ids, math.inf):
            raise serial.SerializationError("ids are not %d increasing ids" % n_objects)
        try:
            n_portions, n_snapshots = _layout(t_max, period)
        except ValueError as e:
            raise serial.SerializationError(str(e)) from e
        # no move inside the grid is faster than one corner to the other in
        # an instant; this also bounds the move codes below
        top_speed = math.isqrt(max(2 * (params.side - 1) ** 2 - 1, 0)) + 1
        if params.max_speed > top_speed:
            raise serial.SerializationError(
                "max_speed %d exceeds %d, the most a %d grid allows"
                % (params.max_speed, top_speed, params.side)
            )

        max_move, n_rules, pairs = section("dictionary")
        if len(pairs) != 2 * n_rules:
            raise serial.SerializationError("%d pair members for %d rules" % (len(pairs), n_rules))
        # a one-instant move's Chebyshev radius is at most max_speed
        if max_move > spiral.max_code_for_radius(params.max_speed):
            raise serial.SerializationError(
                "move code %d exceeds max_speed %d" % (max_move, params.max_speed)
            )
        try:
            rules = RuleDictionary.build(pairs, max_move)
        except ValueError as e:
            raise serial.SerializationError(str(e)) from e

        (syms,) = section("log_streams")
        portions = []
        for h in range(n_portions):
            p_ids, sym_lens, d_vals, p_vals = section("log_events", h)
            if not (_increasing_ids(p_ids, n_objects) and len(p_ids) == len(sym_lens)):
                raise serial.SerializationError("portion %d: ids or symbol lengths malformed" % h)
            portions.append((p_ids, sym_lens, d_vals, p_vals))
        try:
            logs = LogStore(rules, period, t_max, params.side, syms, portions)
        except ValueError as e:
            raise serial.SerializationError(str(e)) from e

        trees, fields = [], []
        for h in range(n_snapshots):
            t_bits, l_bits, *rest = section("snapshots", h)
            try:
                check_levels(k, params.side, t_bits, l_bits)
            except ValueError as e:
                raise serial.SerializationError("snapshot %d: %s" % (h, e)) from e
            trees.append((t_bits, l_bits))
            fields.append(rest)
        r.expect_end("index file")
        # every tree's cells in one decode, then each snapshot's table
        xs, ys, counts = decode_cells(k, params.side, trees)
        cuts = np.append(0, np.cumsum(counts)).tolist()
        snapshots = []
        for h, (present, perm_vals, q) in enumerate(fields):
            cells = xs[cuts[h]:cuts[h + 1]], ys[cuts[h]:cuts[h + 1]]
            try:
                snapshots.append(Snapshot.load(cells, present, perm_vals, q, n_objects))
            except ValueError as e:
                raise serial.SerializationError("snapshot %d: %s" % (h, e)) from e
        logs.place(_log_starts(logs, snapshots, n_objects))
        return cls(params, ids, snapshots, logs, rules)

    def stats(self):
        """Size report: bytes per component in the file (``bytes``) and in
        the arrays the index holds (``mem_bytes``), and the log ratio
        against raw symbols."""
        size = collections.Counter(total=len(HEADER))
        for part, payload in self._sections():
            size[part] += len(payload)
            size["total"] += len(serial.wrap_section(payload))
        log_bytes = size["log_streams"] + size["log_events"] + size["dictionary"]
        raw = self.params.raw_symbols
        logs = self.logs
        return {
            "objects": int(self.params.n_objects),
            "t_max": int(self.params.t_max),
            "period": int(self.params.period),
            "k": int(self.params.k),
            "grid_side": int(self.params.side),
            "max_speed": int(self.params.max_speed),
            "raw_symbols": int(raw),
            "compressed_symbols": int(len(self.logs.syms)),
            "rules": int(self.rules.n_rules),
            "grammar_depth": int(self.rules.depth()),
            "bytes": {
                part: size[part]
                for part in ("snapshots", "log_streams", "log_events", "dictionary", "total")
            },
            "mem_bytes": {
                "snapshots": _array_bytes(self.snapshots),
                "log_streams": logs.syms.nbytes,
                "log_events": _array_bytes(logs.bounds, logs.table, logs.d_vals, logs.p_vals),
                "checkpoints": _array_bytes(logs.checkpoints, logs.log_box),
                "columns": _array_bytes(logs.columns),
                "dictionary": _array_bytes(self.rules),
                "total": _array_bytes(self),
            },
            "log_ratio_vs_raw": log_bytes / raw if raw else 0.0,
        }


def _meeting(box, region):
    """Which rows of ``box``, one (x1, y1, x2, y2) per row, meet ``region``."""
    x1, y1, x2, y2 = region
    return (box[:, 0] <= x2) & (box[:, 2] >= x1) & (box[:, 1] <= y2) & (box[:, 3] >= y1)


# np.hypot may round an ulp or two above math.hypot; a kNN bound scaled by
# this stays at or below the exact distance
_SHRINK = 1 - 2.0**-40


def _box_distance(qx, qy, box):
    """Each box's distance from (qx, qy), shrunk by ``_SHRINK``: ``box``
    holds one row (x1, y1, x2, y2) per box."""
    x1, y1, x2, y2 = box.T
    return np.hypot(
        np.maximum(np.maximum(x1 - qx, qx - x2), 0), np.maximum(np.maximum(y1 - qy, qy - y2), 0)
    ) * _SHRINK


def _layout(t_max, period):
    """(portions, snapshots) of the timeline 0..t_max at ``period``;
    ValueError when t_max spans more than ``MAX_PERIODS`` periods."""
    if t_max // period > MAX_PERIODS:
        raise ValueError(
            "t_max %d spans %d periods of %d, more than the %d an index lays out"
            % (t_max, t_max // period, period, MAX_PERIODS)
        )
    return -(-t_max // period), t_max // period + 1


def _timelines(ids, series):
    """Every cell of ``series`` as int64 columns (internal id, instant, x,
    y), by id and then instant.  ValueError names the first object whose
    instants do not strictly increase from 0, whose cells are negative, or
    whose instants or cells do not fit int64."""
    cols = []
    for o, oid in enumerate(ids):
        ts_parts, xs_parts, ys_parts = [], [], []
        for start, cells in series[oid]:
            if not len(cells):
                continue
            try:  # every instant and cell coordinate is an int64
                ts_parts.append(np.arange(start, start + len(cells), dtype=np.int64))
                xs_parts.append(np.asarray([c[0] for c in cells], dtype=np.int64))
                ys_parts.append(np.asarray([c[1] for c in cells], dtype=np.int64))
            except OverflowError:
                raise ValueError(
                    "object %r: instant or cell coordinate outside int64" % oid
                ) from None
        if not ts_parts:
            continue
        ts, xs, ys = (np.concatenate(p) for p in (ts_parts, xs_parts, ys_parts))
        if ts[0] < 0 or (np.diff(ts) <= 0).any():
            raise ValueError("object %r: instants must strictly increase" % oid)
        if xs.min() < 0 or ys.min() < 0:
            raise ValueError("object %r: negative cell coordinate" % oid)
        cols.append((np.full(len(ts), o, dtype=np.int64), ts, xs, ys))
    if not cols:
        return (np.zeros(0, dtype=np.int64),) * 4
    return tuple(np.concatenate(c) for c in zip(*cols))


def _max_speed(obj, ts, xs, ys):
    """The largest per-instant displacement, ceil(|move| / elapsed) over
    each object's consecutive cells, and at least 1.  The float ratio only
    picks the candidates; their ceilings are exact integers."""
    same = obj[1:] == obj[:-1]
    dt, dx, dy = (np.diff(c)[same] for c in (ts, xs, ys))
    moved = (dx != 0) | (dy != 0)
    if not moved.any():
        return 1
    dt, dx, dy = dt[moved], dx[moved], dy[moved]
    ratio = np.hypot(dx, dy) / dt  # within a few ulps of the true ratio
    top = np.flatnonzero(ratio >= ratio.max() * (1 - 1e-9))
    moves = set(zip(dx[top].tolist(), dy[top].tolist(), dt[top].tolist()))
    return max(1, max(math.isqrt(a * a + b * b - 1) // el + 1 for a, b, el in moves))


# the largest Chebyshev radius whose spiral codes all fit int64
_MAX_CODE_RADIUS = (math.isqrt(2**63 - 1) - 1) // 2


def _emit_logs(obj, ts, xs, ys, period, t_max):
    """Every object's logs from its cells (columns by object, then instant),
    in (portion, object) order: (portion per log, internal id per log,
    symbol stream per log, D entries, each log's offset into them and
    their total, the same two for P entries, largest one-instant move
    code).

    A cell at instant t >= 1 opens or extends the log of portion
    (t - 1) // period: with AA when its object was absent at the portion's
    snapshot and had no cell since, else with the move from the previous
    cell (a spiral code after one instant, RNM or RM after a gap).  A D
    closes a log that ends before its portion does, and a log holding only
    an object's snapshot cell.
    """
    n = len(ts)
    has_prev = np.zeros(n, dtype=bool)
    has_prev[1:] = obj[1:] == obj[:-1]
    has_next = np.append(has_prev[1:], False)
    body = ts >= 1  # instant 0 is snapshot 0's and in no log's body
    h = np.maximum(ts - 1, 0) // period
    lo = h * period
    pe = lo + np.minimum(period, t_max - lo)
    step, dx, dy = (np.diff(c, prepend=0) for c in (ts, xs, ys))  # from the cell before
    aa = body & ~(has_prev & (ts - step >= lo))
    move = body & ~aa
    if (np.maximum(np.abs(dx), np.abs(dy))[move] > _MAX_CODE_RADIUS).any():
        raise ValueError(
            "a move of over %d cells along an axis has no int64 spiral code" % _MAX_CODE_RADIUS
        )
    code = spiral.encode_array(np.where(move, dx, 0), np.where(move, dy, 0))  # 0 if no move
    unit = move & (step == 1)
    still = move & ~unit & (dx == 0) & (dy == 0)
    rm = move & ~unit & ~still
    sym = np.where(aa, EV_AA, np.where(unit, code + MOVE_BASE, np.where(still, EV_RNM, EV_RM)))
    h_next = np.append(h[1:], -1)
    snap_h = ts // period
    snap_only = (ts % period == 0) & (snap_h < -(-t_max // period))
    snap_only &= ~(has_next & (h_next == snap_h))
    closes = body & ~(has_next & (h_next == h)) & (ts < pe)
    d_end = snap_only | closes

    # two entry slots per cell: the cell's own symbol, then a D closing a log
    keep = np.stack([body, d_end], axis=1).ravel()
    log_h = np.stack([h, np.where(snap_only, snap_h, h)], axis=1).ravel()
    log_o = np.repeat(obj, 2)
    sel = np.flatnonzero(keep)
    order = sel[np.lexsort((log_o[sel], log_h[sel]))]  # stable: keeps each log's order
    syms = np.stack([sym, np.full(n, EV_D)], axis=1).ravel()[order]
    has_d = np.stack([aa | still | rm, d_end], axis=1).ravel()[order]
    d_all = np.stack([np.where(aa, ts, step - 1), ts], axis=1).ravel()[order]
    n_p = np.stack([np.where(aa, 2, rm.astype(np.int64)), np.full(n, 2)], axis=1).ravel()[order]
    p_first = np.stack([np.where(aa, xs, code), xs], axis=1).ravel()[order]
    p_second = np.repeat(ys, 2)[order]

    log_h, log_o = log_h[order], log_o[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (log_h[1:] != log_h[:-1]) | (log_o[1:] != log_o[:-1])
    starts = np.flatnonzero(opens)
    bounds = np.append(starts, len(order))
    p_vals = np.stack([p_first, p_second], axis=1)[np.stack([n_p >= 1, n_p >= 2], axis=1)]
    cuts = bounds.tolist()
    return (
        log_h[starts],
        log_o[starts],
        [syms[i:j] for i, j in zip(cuts[:-1], cuts[1:])],
        d_all[has_d],
        np.append(0, np.cumsum(has_d))[bounds],
        p_vals,
        np.append(0, np.cumsum(n_p))[bounds],
        int(code[unit].max(initial=0)),
    )


def _log_starts(logs, snapshots, n_objects):
    """Each log's start cell, one (x, y) row per log, raising
    SerializationError unless every log's start plus its net displacement
    is its end.  A log starts at its AA position, else at its object's cell
    in its portion's snapshot, where the object must be present; it ends at
    its D position, else, when its portion ends on a snapshot, at its
    object's cell there.  One pass over all logs."""
    t, p, cp = logs.table, logs.p_vals.astype(np.int64), logs.checkpoints
    h = np.repeat(np.arange(logs.n_portions), np.diff(logs.bounds.astype(np.int64)))
    o = t.ids.astype(np.int64)
    p_off = t.p_off.astype(np.int64)
    # every present object's cell, keyed by snapshot * n_objects + id and
    # sorted by key, then a key no object has
    sizes = [len(s.ids) for s in snapshots]
    keys = np.concatenate([s.ids for s in snapshots]).astype(np.int64)
    keys += np.repeat(np.arange(len(snapshots)) * n_objects, sizes)
    order = np.argsort(keys)
    keys = np.append(keys[order], -1)
    cells = np.concatenate([s.xy for s in snapshots]).astype(np.int64)[order]

    def snapshot_cells(hs, os, what):
        want = hs * n_objects + os
        i = np.searchsorted(keys[:-1], want)
        if (keys[i] != want).any():
            raise serial.SerializationError("a log %s an object absent from the snapshot" % what)
        return cells[i]

    start = np.empty((len(o), 2), dtype=np.int64)
    aa = t.starts_aa
    start[aa] = p[p_off[:-1][aa, None] + [0, 1]]
    start[~aa] = snapshot_cells(h[~aa], o[~aa], "without AA starts from")
    end = start + np.column_stack((cp.tot_x, cp.tot_y)).astype(np.int64)
    d = t.ends_d
    on_snapshot = ~d & (h + 1 < len(snapshots))
    if not (
        np.array_equal(end[d], p[p_off[1:][d, None] - [2, 1]])
        and np.array_equal(
            end[on_snapshot],
            snapshot_cells(h[on_snapshot] + 1, o[on_snapshot], "without D ends at"),
        )
    ):
        raise serial.SerializationError("a log's moves do not lead from its start to its end")
    return start


def _increasing_ids(ids, bound):
    """Whether ``ids`` strictly increase within 0..bound-1."""
    return not len(ids) or (ids[0] >= 0 and ids[-1] < bound and (np.diff(ids) > 0).all())


def _array_bytes(*roots):
    """Bytes of the distinct numpy buffers reachable from ``roots`` through
    containers, memoryviews and the attributes of this package's objects."""
    seen, todo, total = set(), list(roots), 0
    while todo:
        obj = todo.pop()
        if isinstance(obj, memoryview):
            obj = obj.obj
        if isinstance(obj, np.ndarray) and isinstance(obj.base, np.ndarray):
            obj = obj.base  # a view: count the buffer it shares once
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith(__package__):
            todo.extend(vars(obj).values())
    return total
