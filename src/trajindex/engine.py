"""The queryable index: periodic snapshots + compressed logs + rule metadata.

Construction discretizes nothing itself — it expects the regular,
integer-cell form produced by ``ingest.normalize`` (one position per active
instant per object, gaps allowed).  It then:

1. computes the dataset's maximum per-instant displacement (Euclidean,
   rounded up; the bound behind every pruning rule),
2. cuts each object's timeline into portions of ``period`` instants,
   emitting spiral move codes and AA/D/RM/RNM events per portion,
3. compresses all logs jointly with Re-Pair and annotates every rule with
   span / displacement / relative bounding box,
4. builds one snapshot (k2-tree + id permutation) per multiple of the
   period, with appear/disappear entry lists linking into the logs.

Queries follow the classic plan: anchor at a snapshot (or an appearance /
disappearance event), then walk the compressed log forward or backward,
jumping whole rules whenever their metadata proves they cannot matter.
``counters`` tracks how many symbols each traversal family touched, which
the pruning tests compare across debug flags (``use_mbr`` / ``use_er``).

Results are deterministic: object lists sort by id, nearest-neighbour
answers by (distance, id).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import serial, spiral
from .bits import Permutation
from .geometry import (
    clip_region,
    contains,
    dist_point_point,
    expanded_region,
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
    unzigzag,
    zigzag,
)
from .k2tree import K2Tree
from .logs import LogStore, Portion, move_back, move_jump, move_steps
from .snapshot import Snapshot

MAGIC = b"GCTI"
FORMAT_VERSION = 1


@dataclass
class IndexParams:
    period: int
    k: int
    side: int
    n_objects: int
    t_max: int
    max_speed: int
    raw_symbols: int
    sample_rate: int = 5


class Counters(dict):
    def bump(self, key, n=1):
        self[key] = self.get(key, 0) + n

    def reset(self):
        self.clear()


class TrajectoryIndex:
    def __init__(self, params, ids, snapshots, logs, rules):
        self.params = params
        self.ids = ids  # sorted original object ids; position = internal id
        self.snapshots = snapshots
        self.logs = logs
        self.rules = rules
        self.counters = Counters()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, series, period, k=2, side=None, sample_rate=5):
        """Build from normalized per-object segments.

        ``series``: {object id: [(start instant, [(x, y), ...]), ...]} with
        strictly increasing, non-overlapping segments per object.
        """
        if period < 1:
            raise ValueError("period must be >= 1")
        ids = sorted(series.keys())
        if ids and ids[0] < 0:
            raise ValueError("object ids must be non-negative integers")
        timelines = []
        t_max = 0
        max_coord = 0
        for oid in ids:
            ts_parts, xs_parts, ys_parts = [], [], []
            for start, cells in series[oid]:
                if not len(cells):
                    continue
                ts_parts.append(np.arange(start, start + len(cells), dtype=np.int64))
                xs_parts.append(np.asarray([c[0] for c in cells], dtype=np.int64))
                ys_parts.append(np.asarray([c[1] for c in cells], dtype=np.int64))
            if ts_parts:
                ts = np.concatenate(ts_parts)
                xs = np.concatenate(xs_parts)
                ys = np.concatenate(ys_parts)
            else:
                ts = xs = ys = np.zeros(0, dtype=np.int64)
            if len(ts):
                if ts[0] < 0 or (np.diff(ts) <= 0).any():
                    raise ValueError("object %r: instants must strictly increase" % oid)
                if xs.min() < 0 or ys.min() < 0:
                    raise ValueError("object %r: negative cell coordinate" % oid)
                t_max = max(t_max, int(ts[-1]))
                max_coord = max(max_coord, int(xs.max()), int(ys.max()))
            timelines.append((ts, xs, ys))
        if side is None:
            side = k
            while side <= max_coord:
                side *= k
        else:
            s = k
            while s < side:
                s *= k
            if s != side or side <= max_coord:
                raise ValueError("side must be a power of k covering all cells")

        max_speed = 1
        for ts, xs, ys in timelines:
            if len(ts) < 2:
                continue
            dt = np.diff(ts)
            dd = np.diff(xs) ** 2 + np.diff(ys) ** 2
            nz = dd > 0
            if nz.any():
                per = [
                    math.isqrt(int(sq) - 1) // int(el) + 1
                    for sq, el in zip(dd[nz], dt[nz])
                ]
                max_speed = max(max_speed, max(per))

        n_portions = -(-t_max // period) if t_max else 0
        streams = []
        stream_meta = []  # (portion, internal id, d values, p values)
        max_move = 0
        for h in range(n_portions):
            lo = h * period
            pe = min(lo + period, t_max)
            for o, (ts, xs, ys) in enumerate(timelines):
                i0 = int(np.searchsorted(ts, lo, side="right"))
                i1 = int(np.searchsorted(ts, pe, side="right"))
                at_snap = i0 > 0 and ts[i0 - 1] == lo
                if i0 == i1 and not at_snap:
                    continue
                syms, dv, pv = [], [], []
                j = i0
                if not at_snap:
                    syms.append(EV_AA)
                    dv.append(int(ts[i0]))
                    pv.append(int(xs[i0]))
                    pv.append(int(ys[i0]))
                    j = i0 + 1
                for jj in range(j, i1):
                    step = int(ts[jj] - ts[jj - 1])
                    dx = int(xs[jj] - xs[jj - 1])
                    dy = int(ys[jj] - ys[jj - 1])
                    if step == 1:
                        code = spiral.encode(dx, dy)
                        max_move = max(max_move, code)
                        syms.append(code + MOVE_BASE)
                    elif dx == 0 and dy == 0:
                        syms.append(EV_RNM)
                        dv.append(step - 1)
                    else:
                        syms.append(EV_RM)
                        dv.append(step - 1)
                        pv.append(spiral.encode(dx, dy))
                last = i1 - 1 if i1 > i0 else i0 - 1
                if int(ts[last]) < pe:
                    syms.append(EV_D)
                    dv.append(int(ts[last]))
                    pv.append(int(xs[last]))
                    pv.append(int(ys[last]))
                streams.append(syms)
                stream_meta.append((h, o, dv, pv))

        raw_symbols = sum(len(s) for s in streams)
        nt_base = MOVE_BASE + max_move + 1
        compressed, rule_pairs = repair_compress(streams, nt_base)
        rules = RuleDictionary.build(rule_pairs, max_move)

        syms_all = (
            np.concatenate(compressed) if compressed else np.zeros(0, dtype=np.int64)
        )
        portions = []
        si = 0
        pos = 0
        for h in range(n_portions):
            p_ids, d_vals, d_off, p_vals, p_off = [], [], [0], [], [0]
            s_off = [pos]
            while si < len(stream_meta) and stream_meta[si][0] == h:
                _, o, dv, pv = stream_meta[si]
                p_ids.append(o)
                s_off.append(s_off[-1] + len(compressed[si]))
                d_vals.extend(dv)
                d_off.append(len(d_vals))
                p_vals.extend(pv)
                p_off.append(len(p_vals))
                si += 1
            pos = s_off[-1]
            portions.append(Portion(p_ids, s_off, d_vals, d_off, p_vals, p_off))

        params = IndexParams(
            period=period,
            k=k,
            side=side,
            n_objects=len(ids),
            t_max=t_max,
            max_speed=max_speed,
            raw_symbols=raw_symbols,
            sample_rate=sample_rate,
        )
        logs = LogStore(rules, period, t_max, syms_all, portions)

        snapshots = []
        n_snaps = t_max // period + 1
        snap_positions = [[] for _ in range(n_snaps)]
        for o, (ts, xs, ys) in enumerate(timelines):
            if not len(ts):
                continue
            snap_ts = np.arange(n_snaps, dtype=np.int64) * period
            idx = np.searchsorted(ts, snap_ts)
            ok = (idx < len(ts)) & (ts[np.minimum(idx, len(ts) - 1)] == snap_ts)
            for hh in np.flatnonzero(ok):
                i = int(idx[hh])
                snap_positions[hh].append((o, int(xs[i]), int(ys[i])))
        for hh in range(n_snaps):
            app = (
                portions[hh].ids[portions[hh].starts_aa]
                if hh < len(portions)
                else np.zeros(0, dtype=np.int64)
            )
            dis = (
                portions[hh - 1].ids[portions[hh - 1].ends_d]
                if hh >= 1
                else np.zeros(0, dtype=np.int64)
            )
            snapshots.append(
                Snapshot.build(
                    hh * period,
                    snap_positions[hh],
                    app,
                    dis,
                    k,
                    side,
                    len(ids),
                    sample_rate,
                )
            )
        return cls(params, np.asarray(ids, dtype=np.int64), snapshots, logs, rules)

    # ------------------------------------------------------------------
    # id mapping and small helpers
    # ------------------------------------------------------------------

    def _oid(self, obj):
        i = int(np.searchsorted(self.ids, obj))
        if i >= len(self.ids) or self.ids[i] != obj:
            raise KeyError("unknown object id: %r" % (obj,))
        return i

    def _orig(self, oid):
        return int(self.ids[oid])

    @property
    def last_snapshot(self):
        return self.params.t_max // self.params.period

    def _nearest_snapshot(self, t_q):
        d = self.params.period
        return min((2 * t_q + d - 1) // (2 * d), self.last_snapshot)

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
        h = self._nearest_snapshot(t_q)
        t_s = h * self.params.period
        snap = self.snapshots[h]
        if snap.is_present(oid):
            p = snap.find_object(oid)
            if t_s == t_q:
                return p
            if t_s < t_q:
                return self._forward_to(oid, t_s, p, t_q)
            return self._backward_to(h - 1, oid, t_q, t_s, p)
        if t_s <= t_q:
            anchor = (
                self.logs.first_anchor(h, oid) if h < self.logs.n_portions else None
            )
            if anchor is None:
                return None
            t_a, p_a = anchor
            if t_a > t_q:
                return None
            if t_a == t_q:
                return p_a
            return self._forward_to(oid, t_a, p_a, t_q)
        anchor = self.logs.last_anchor(h - 1, oid) if h >= 1 else None
        if anchor is None:
            return None
        t_d, p_d = anchor
        if t_d < t_q:
            return None
        if t_d == t_q:
            return p_d
        return self._backward_to(h - 1, oid, t_q, t_d, p_d)

    def _forward_to(self, oid, t_c, p_c, t_q):
        bump = self.counters.bump
        for sym, t, p in self.logs.elements(oid, t_c, p_c, t_q):
            if sym is not None:
                bump("object_symbols")
                if t > t_q:
                    t, p = move_jump(self.rules, p_c, t_c, t_q, sym)
            t_c, p_c = t, p
        return p_c if t_c == t_q else None

    def _backward_to(self, h, oid, t_q, t_c, p_c):
        bump = self.counters.bump
        for sym, t, p in self.logs.elements_backward(h, oid, t_c, p_c, t_q):
            if sym is not None:
                bump("object_symbols")
                if t < t_q:
                    t, p = move_back(self.rules, p_c, t_q, t_c, sym)
            t_c, p_c = t, p
        return p_c if t_c == t_q else None

    # ------------------------------------------------------------------
    # trajectory (time window)
    # ------------------------------------------------------------------

    def trajectory(self, obj, t_begin, t_end):
        """(instant, position) pairs over [t_begin, t_end]; gaps omitted."""
        oid = self._oid(obj)
        t_b = max(t_begin, 0)
        t_e = min(t_end, self.params.t_max)
        if t_b > t_e:
            return []
        d = self.params.period
        h = t_b // d
        anchor = None
        while h <= self.last_snapshot and h * d <= t_e:
            if self.snapshots[h].is_present(oid):
                anchor = (h * d, self.snapshots[h].find_object(oid))
                break
            a = self.logs.first_anchor(h, oid) if h < self.logs.n_portions else None
            if a is not None:
                anchor = a
                break
            h += 1
        if anchor is None:
            return []
        t_c, p_c = anchor
        if t_c > t_e:
            return []
        out = []
        if t_c >= t_b:
            out.append((t_c, p_c))
        for sym, t, p in self.logs.elements(oid, t_c, p_c, t_e):
            if sym is None:
                if t_b <= t <= t_e:
                    out.append((t, p))
            elif t >= t_b:
                steps = move_steps(self.rules, p_c, t_c, t_e, sym)
                out.extend(step for step in steps if step[0] >= t_b)
            t_c, p_c = t, p
        return out

    # ------------------------------------------------------------------
    # time slice (region at one instant)
    # ------------------------------------------------------------------

    def time_slice(self, region, t_q, use_mbr=True, use_er=True):
        """Objects inside a region at one instant, as sorted (id, position)."""
        r = clip_region(region, self.params.side)
        if r is None or not self._in_extent(t_q):
            return []
        h = self._nearest_snapshot(t_q)
        t_s = h * self.params.period
        snap = self.snapshots[h]
        m_sp = self.params.max_speed
        side = self.params.side
        answers = []
        if t_s <= t_q:
            for o, t_c, p_c in self._starts(h, r, t_q):
                if t_c == t_q:
                    if contains(r, *p_c):
                        answers.append((o, p_c))
                    continue
                pos = self._slice_forward(o, t_c, p_c, t_q, r, use_mbr, use_er)
                if pos is not None:
                    answers.append((o, pos))
        else:
            er = expanded_region(r, t_q, t_s, m_sp, side)
            cands = [(o, t_s, p) for o, p in snap.objects_in_region(er)]
            for o in snap.dis:
                o = int(o)
                t_d, p_d = self.logs.last_anchor(h - 1, o)
                if t_d >= t_q and contains(
                    expanded_region(r, t_q, t_d, m_sp, side), *p_d
                ):
                    cands.append((o, t_d, p_d))
            for o, t_c, p_c in cands:
                if t_c == t_q:
                    if contains(r, *p_c):
                        answers.append((o, p_c))
                    continue
                pos = self._slice_backward(h - 1, o, t_q, t_c, p_c, r, use_mbr, use_er)
                if pos is not None:
                    answers.append((o, pos))
        return sorted((self._orig(o), p) for o, p in answers)

    def _starts(self, h, r, t_last):
        """Forward walk starts in portion h that may reach r by t_last.

        These are the snapshot objects inside r expanded to t_last, then the
        AA anchors at or before t_last that r is within reach of, as
        (id, instant, position) triples.
        """
        m_sp = self.params.max_speed
        side = self.params.side
        t_s = h * self.params.period
        snap = self.snapshots[h]
        er = expanded_region(r, t_s, t_last, m_sp, side)
        starts = [(o, t_s, p) for o, p in snap.objects_in_region(er)]
        for o in snap.app:
            o = int(o)
            t_a, p_a = self.logs.first_anchor(h, o)
            if t_a <= t_last and contains(
                expanded_region(r, t_a, t_last, m_sp, side), *p_a
            ):
                starts.append((o, t_a, p_a))
        return starts

    def _slice_forward(self, oid, t_c, p_c, t_q, r, use_mbr, use_er):
        m_sp = self.params.max_speed
        side = self.params.side
        rules = self.rules
        bump = self.counters.bump
        for sym, t, p in self.logs.elements(oid, t_c, p_c, t_q):
            if sym is not None:
                bump("slice_symbols")
                if (
                    use_mbr
                    and t >= t_q
                    and sym >= rules.nt_base
                    and not regions_intersect(rules.box(sym, *p_c), r)
                ):
                    return None
                if t > t_q:
                    t, p = move_jump(rules, p_c, t_c, t_q, sym)
            t_c, p_c = t, p
            if use_er and t_c < t_q and not contains(
                expanded_region(r, t_c, t_q, m_sp, side), *p_c
            ):
                return None
        if t_c == t_q and contains(r, *p_c):
            return p_c
        return None

    def _slice_backward(self, h, oid, t_q, t_c, p_c, r, use_mbr, use_er):
        m_sp = self.params.max_speed
        side = self.params.side
        rules = self.rules
        bump = self.counters.bump
        for sym, t, p in self.logs.elements_backward(h, oid, t_c, p_c, t_q):
            if sym is not None:
                bump("slice_symbols")
                if (
                    use_mbr
                    and t <= t_q
                    and sym >= rules.nt_base
                    and not regions_intersect(rules.box(sym, *p), r)
                ):
                    return None
                if t < t_q:
                    t, p = move_back(rules, p_c, t_q, t_c, sym)
            t_c, p_c = t, p
            if use_er and t_c > t_q and not contains(
                expanded_region(r, t_q, t_c, m_sp, side), *p_c
            ):
                return None
        if t_c == t_q and contains(r, *p_c):
            return p_c
        return None

    # ------------------------------------------------------------------
    # time interval (region over a window)
    # ------------------------------------------------------------------

    def time_interval(self, region, t_begin, t_end, use_mbr=True, use_er=True):
        """Sorted ids of objects inside the region at any window instant."""
        r = clip_region(region, self.params.side)
        t_b = max(t_begin, 0)
        t_e = min(t_end, self.params.t_max)
        if r is None or t_b > t_e:
            return []
        d = self.params.period
        answers = set()
        if t_b % d == 0:
            for o, _p in self.snapshots[t_b // d].objects_in_region(r):
                answers.add(o)
            h = t_b // d
        else:
            h = (t_b - 1) // d
        while h < self.logs.n_portions and h * d < t_e:
            pe = self.logs.portion_end(h)
            t_last = min(t_e, pe)
            for o, t_c, p_c in self._starts(h, r, t_last):
                if o in answers:
                    continue
                if t_b <= t_c <= t_e and contains(r, *p_c):
                    answers.add(o)
                    continue
                if self._interval_scan(o, t_c, p_c, t_b, t_e, t_last, r, use_mbr, use_er):
                    answers.add(o)
            h += 1
        return sorted(self._orig(o) for o in answers)

    def _interval_scan(self, oid, t_c, p_c, t_b, t_e, t_last, r, use_mbr, use_er):
        m_sp = self.params.max_speed
        side = self.params.side
        rules = self.rules
        span, dx, dy, pairs = rules.sym_span, rules.sym_dx, rules.sym_dy, rules.sym_pairs
        nt_base = rules.nt_base
        bump = self.counters.bump
        for sym, t, p in self.logs.elements(oid, t_c, p_c, t_last):
            stack = [sym]  # None for an event
            while stack and t_c < t_last:
                s = stack.pop()
                bump("interval_symbols")
                if s is None:  # the event sets the state
                    t_c, p_c = t, p
                else:
                    if t_c + span[s] < t_b:  # fully before the window: pure skip
                        t_c, p_c = t_c + span[s], (p_c[0] + dx[s], p_c[1] + dy[s])
                        continue
                    if use_mbr:
                        box = rules.box(s, *p_c)
                        if not regions_intersect(box, r):
                            # cannot touch r anywhere inside: consume whole, even
                            # past t_last — the portion log bounds the span anyway
                            t_c, p_c = t_c + span[s], (p_c[0] + dx[s], p_c[1] + dy[s])
                            continue
                        if s >= nt_base and region_in_region(box, r):
                            return True
                    if s >= nt_base:
                        stack.append(pairs[s, 1])
                        stack.append(pairs[s, 0])
                        continue
                    t_c, p_c = t_c + 1, (p_c[0] + dx[s], p_c[1] + dy[s])
                if t_b <= t_c <= t_e and contains(r, *p_c):
                    return True
                if (
                    use_er
                    and t_c < t_last
                    and not contains(expanded_region(r, t_c, t_last, m_sp, side), *p_c)
                ):
                    return False
        return False

    # ------------------------------------------------------------------
    # k nearest neighbours
    # ------------------------------------------------------------------

    def knn(self, count, point, t_q):
        """The ``count`` objects nearest ``point`` at t_q, as (id, distance).

        One best-first search over log walks from the snapshot at or before
        t_q, keyed by a lower bound on the distance at t_q: the distance so
        far minus what ``max_speed`` covers in the time left.  Snapshot
        objects join from the k2-tree's distance stream once their bound is
        no more than the heap's top, and the search stops at the first bound
        beyond the k-th true distance.
        """
        if count <= 0 or not self._in_extent(t_q) or not len(self.ids):
            return []
        h = min(t_q // self.params.period, self.last_snapshot)
        t_s = h * self.params.period
        snap = self.snapshots[h]
        m_sp = self.params.max_speed
        slack = m_sp * (t_q - t_s)
        portions = self.logs.portions
        cands = []  # min-heap of (lower bound, id, instant, position, walker)

        def admit(o, t_c, p_c, dist):
            if t_c < t_q:  # a start at t_q walks no log (the last snapshot has none)
                portion = portions[h]
                i = portion.find(o)
                if i < 0 or portion.last_covered[i] < t_q:
                    return  # provably gone before t_q
            heapq.heappush(cands, (dist - m_sp * (t_q - t_c), o, t_c, p_c, None))

        for o in snap.app:
            o = int(o)
            t_a, p_a = self.logs.first_anchor(h, o)
            if t_a <= t_q:
                admit(o, t_a, p_a, dist_point_point(point, p_a))
        stream = snap.candidates_by_distance(point[0], point[1])
        nxt = next(stream, None)
        final = []  # max-heap of (-dist, -oid)
        d_fin = math.inf
        bump = self.counters.bump
        while cands or nxt is not None:
            if nxt is not None and (not cands or nxt[2] - slack <= cands[0][0]):
                o, p, dist = nxt
                nxt = next(stream, None)
                admit(o, t_s, p, dist)
                continue
            d_min, o, t_c, p_c, cur = heapq.heappop(cands)
            if len(final) == count and d_min > d_fin:
                break
            if t_c == t_q:
                dist = dist_point_point(point, p_c)
                if len(final) < count:
                    heapq.heappush(final, (-dist, -o))
                    if len(final) == count:
                        d_fin = -final[0][0]
                elif (dist, o) < (-final[0][0], -final[0][1]):
                    heapq.heapreplace(final, (-dist, -o))
                    d_fin = -final[0][0]
                continue
            if cur is None:
                cur = self.logs.elements(o, t_c, p_c, t_q)
            step = next(cur, None)
            if step is None:
                continue  # the log ends before t_q: not active, drop
            sym, t, p = step
            if sym is not None:
                bump("knn_symbols")
                if t > t_q:
                    t, p = move_jump(self.rules, p_c, t_c, t_q, sym)
            t_c, p_c = t, p
            if t_c > t_q:
                continue  # a gap covers t_q: not active, drop
            d_min = dist_point_point(point, p_c) - m_sp * (t_q - t_c)
            heapq.heappush(cands, (d_min, o, t_c, p_c, cur))
        out = sorted((-nd, -no) for nd, no in final)
        return [(self._orig(o), dist) for dist, o in out]

    # ------------------------------------------------------------------
    # serialization & statistics
    # ------------------------------------------------------------------

    def _params_payload(self):
        w = serial.ByteWriter()
        w.u32(self.params.k)
        w.u64(self.params.period)
        w.u64(self.params.side)
        w.u64(self.params.t_max)
        w.u64(self.params.max_speed)
        w.u64(self.params.raw_symbols)
        w.u64(self.params.n_objects)
        w.u32(len(self.snapshots))
        w.u32(self.logs.n_portions)
        w.u16(self.params.sample_rate)
        serial.write_uint_array(w, self.ids)
        return w.getvalue()

    def _dict_payload(self):
        w = serial.ByteWriter()
        w.u32(self.rules.max_move_code)
        w.u32(self.rules.n_rules)
        serial.write_uint_array(w, self.rules.pairs.reshape(-1))
        serial.write_dac(w, serial.DacSequence.optimal(self.rules.span))
        coords = np.column_stack(
            [
                self.rules.dx,
                self.rules.dy,
                self.rules.mbr[:, 0],
                self.rules.mbr[:, 1],
                self.rules.mbr[:, 2],
                self.rules.mbr[:, 3],
            ]
        ).reshape(-1)
        serial.write_dac(w, serial.DacSequence.optimal(zigzag(coords)))
        return w.getvalue()

    def _streams_payload(self):
        w = serial.ByteWriter()
        serial.write_dac(w, serial.DacSequence.optimal(self.logs.syms))
        return w.getvalue()

    def _portion_payload(self, h):
        p = self.logs.portions[h]
        w = serial.ByteWriter()
        serial.write_uint_array(w, p.ids)
        serial.write_uint_array(w, np.diff(p.sym_off))
        serial.write_uint_array(w, np.diff(p.d_off))
        serial.write_dac(w, serial.DacSequence.fixed(p.d_vals, 8, 2))
        serial.write_uint_array(w, np.diff(p.p_off))
        serial.write_dac(w, serial.DacSequence.fixed(p.p_vals, 8, 2))
        return w.getvalue()

    def _snapshot_payload(self, h):
        s = self.snapshots[h]
        w = serial.ByteWriter()
        serial.write_bitvector(w, s.tree.t)
        serial.write_bitvector(w, s.tree.l)
        serial.write_bitvector(w, s.present)
        serial.write_uint_array(w, s.perm.raw)
        serial.write_bitvector(w, s.q)
        serial.write_uint_array(w, s.app)
        serial.write_uint_array(w, s.dis)
        return w.getvalue()

    def save(self, path):
        blob = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(blob)

    def to_bytes(self):
        parts = [MAGIC, FORMAT_VERSION.to_bytes(2, "little")]
        parts.append(serial.wrap_section(self._params_payload()))
        parts.append(serial.wrap_section(self._dict_payload()))
        parts.append(serial.wrap_section(self._streams_payload()))
        for h in range(self.logs.n_portions):
            parts.append(serial.wrap_section(self._portion_payload(h)))
        for h in range(len(self.snapshots)):
            parts.append(serial.wrap_section(self._snapshot_payload(h)))
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
        pr = serial.ByteReader(serial.read_section(r))
        k = pr.u32()
        period = pr.u64()
        side = pr.u64()
        t_max = pr.u64()
        max_speed = pr.u64()
        raw_symbols = pr.u64()
        n_objects = pr.u64()
        n_snapshots = pr.u32()
        n_portions = pr.u32()
        sample_rate = pr.u16()
        ids = serial.read_uint_array(pr)
        params = IndexParams(
            period=period,
            k=k,
            side=side,
            n_objects=n_objects,
            t_max=t_max,
            max_speed=max_speed,
            raw_symbols=raw_symbols,
            sample_rate=sample_rate,
        )

        dr = serial.ByteReader(serial.read_section(r))
        max_move = dr.u32()
        n_rules = dr.u32()
        pairs = serial.read_uint_array(dr).reshape(n_rules, 2)
        span = np.asarray(serial.read_dac(dr).to_list(), dtype=np.int64)
        coords = unzigzag(
            np.asarray(serial.read_dac(dr).to_list(), dtype=np.uint64)
        ).reshape(n_rules, 6)
        try:
            rules = RuleDictionary(
                max_move, pairs, span, coords[:, 0], coords[:, 1], coords[:, 2:6]
            )
        except ValueError as e:
            raise serial.SerializationError(str(e)) from e

        sr = serial.ByteReader(serial.read_section(r))
        syms = np.asarray(serial.read_dac(sr).to_list(), dtype=np.int64)

        portions = []
        pos = 0
        for _h in range(n_portions):
            hr = serial.ByteReader(serial.read_section(r))
            p_ids = serial.read_uint_array(hr)
            sym_lens = serial.read_uint_array(hr)
            d_lens = serial.read_uint_array(hr)
            d_vals = np.asarray(serial.read_dac(hr).to_list(), dtype=np.int64)
            p_lens = serial.read_uint_array(hr)
            p_vals = np.asarray(serial.read_dac(hr).to_list(), dtype=np.int64)
            sym_off = np.concatenate([[pos], pos + np.cumsum(sym_lens)])
            pos = int(sym_off[-1])
            d_off = np.concatenate([[0], np.cumsum(d_lens)])
            p_off = np.concatenate([[0], np.cumsum(p_lens)])
            portions.append(Portion(p_ids, sym_off, d_vals, d_off, p_vals, p_off))
        try:
            logs = LogStore(rules, period, t_max, syms, portions)
        except ValueError as e:
            raise serial.SerializationError(str(e)) from e

        snapshots = []
        for h in range(n_snapshots):
            sr2 = serial.ByteReader(serial.read_section(r))
            t_bits = serial.read_bitvector(sr2)
            l_bits = serial.read_bitvector(sr2)
            present = serial.read_bitvector(sr2)
            perm_vals = serial.read_uint_array(sr2)
            q = serial.read_bitvector(sr2)
            app = serial.read_uint_array(sr2)
            dis = serial.read_uint_array(sr2)
            tree = K2Tree(k, side, t_bits, l_bits)
            perm = Permutation(perm_vals, sample_rate)
            snapshots.append(Snapshot(h * period, tree, present, perm, q, app, dis))
        if not r.at_end():
            raise serial.SerializationError("trailing data after final section")
        return cls(params, ids, snapshots, logs, rules)

    def stats(self):
        """Size report (bytes per component, ratio against raw symbols)."""
        snap_bytes = sum(len(self._snapshot_payload(h)) for h in range(len(self.snapshots)))
        portion_bytes = sum(
            len(self._portion_payload(h)) for h in range(self.logs.n_portions)
        )
        stream_bytes = len(self._streams_payload())
        dict_bytes = len(self._dict_payload())
        total = len(self.to_bytes())
        raw = self.params.raw_symbols
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
                "snapshots": snap_bytes,
                "log_streams": stream_bytes,
                "log_events": portion_bytes,
                "dictionary": dict_bytes,
                "total": total,
            },
            "log_ratio_vs_raw": (
                (stream_bytes + portion_bytes + dict_bytes) / raw if raw else 0.0
            ),
        }
