"""Per-object movement logs between snapshots, and their traversal.

The timeline is cut into portions: portion h covers the instants
(h*period, min((h+1)*period, t_max)].  A snapshot instant is therefore also
the last instant of the portion before it, so logs can be read forward from
the earlier snapshot or backward from the later one.

Each (portion, object) log is one slice of the jointly compressed symbol
stream plus two side arrays aligned with its event symbols, in order:

* D entry:  gap length for RM/RNM, absolute instant for AA/D;
* P entry:  spiral code for RM (one value), absolute x, y for AA/D (two
  values), nothing for RNM.

Only the entries are stored.  Where each log's entries start follows from
its event symbols, so ``LogStore`` derives the offsets on construction,
along with each log's AA/D flags and the ids that appear after or have
disappeared by each snapshot.

A log looks like ``[AA?] (move | RM | RNM)* [D?]``: AA opens a log whose
object was absent at the starting snapshot, D closes a log whose object
stops emitting before the portion ends (its payload repeats the last known
instant/position so backward traversals can anchor on it).

Every ``STRIDE`` compressed symbols after its opening AA, a log has a
checkpoint: the instant, position and D/P side-array cursors before that
symbol, relative to the log's start.  They follow from the symbols, the
rule tables and the side arrays, so they are derived on construction and
never stored in a file.

Traversal primitives:

* ``LogStore.elements`` — forward walker from a log start (a snapshot or an
  AA anchor), crossing portions; it decodes every event and yields one
  ``(sym, t, p)`` state per element: a move symbol with the state it
  reaches applied whole, or ``sym=None`` with the state an AA/RM/RNM or a
  checkpoint sets.  Given a seek instant, it enters each log at the last
  checkpoint at or before that instant and walks on from there;
* ``LogStore.elements_backward`` — the mirror over one portion's log, read
  in place from its end, or with seeking from the first checkpoint at or
  after the floor, yielding the state before each element;
* ``move_jump`` / ``move_back`` — clip a symbol that straddles a time
  limit, descending into the rule with an explicit stack;
* ``move_steps`` — expand a symbol to terminals, one (instant, position)
  per step.

All of them read span, displacement and pairs from the symbol-indexed
tables of ``RuleDictionary``.
"""

import collections
from bisect import bisect_left, bisect_right

import numpy as np

from . import spiral
from .grammar import EV_AA, EV_D, EV_RM, EV_RNM, MOVE_BASE

STRIDE = 16  # compressed symbols between two checkpoints of a log
_P_ENTRIES = np.array([2, 2, 0, 1])  # P entries of a D, AA, RNM and RM event

# Checkpoints of all logs, in log order (portion, then id): log g's
# checkpoints are off[g]..off[g+1]-1, and t, x, y, d and p hold each one's
# instant, position and side-array cursors relative to the log's start;
# tot_x and tot_y hold each log's net displacement.
Checkpoints = collections.namedtuple("Checkpoints", "off t x y d p tot_x tot_y")


class Portion:
    """Logs of one portion: sorted object ids, symbol offsets and the D and
    P side arrays of all its logs."""

    def __init__(self, ids, sym_off, d_vals, p_vals):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.sym_off = np.asarray(sym_off, dtype=np.int64)
        self.d_vals = np.asarray(d_vals, dtype=np.int64)
        self.p_vals = np.asarray(p_vals, dtype=np.int64)
        # filled by LogStore._derive
        self.first = 0  # index of the portion's first log among all logs
        self.d_off = self.p_off = None
        self.starts_aa = self.ends_d = self.last_covered = None
        self.app = self.dis = None

    def find(self, oid):
        i = int(np.searchsorted(self.ids, oid))
        if i < len(self.ids) and self.ids[i] == oid:
            return i
        return -1


_NO_IDS = np.zeros(0, dtype=np.int64)


class LogStore:
    def __init__(self, dictionary, period, t_max, side, syms, portions):
        self.dict = dictionary
        self.period = period
        self.t_max = t_max
        self.side = side
        syms = np.asarray(syms, dtype=np.int64)
        if len(syms) and (syms.min() < 0 or syms.max() >= len(dictionary.sym_span)):
            raise ValueError("log symbol is not a known move, event or rule")
        self.syms = _narrow(syms)
        self._syms = memoryview(self.syms)
        self.portions = portions
        self._derive()

    def _derive(self):
        """Derive every log's side-array offsets, AA/D flags and end instant,
        raising ValueError unless the logs are well formed.

        The logs must tile ``syms`` in order, each non-empty, with AA only
        opening a log and D only closing one.  A portion's side arrays hold
        one D entry per event and two P entries per AA or D plus one per RM.
        Each log's instants add up: its start (the AA instant, else the
        portion's snapshot) plus its move spans and its gaps + 1 reaches its
        D instant, else the portion end, and an AA instant lies inside the
        portion.  No move symbol and no RM code moves ``side`` or more along
        an axis, as every position lies inside the grid.

        The same pass derives the checkpoints (see ``Checkpoints``) every
        ``STRIDE`` symbols after each log's opening AA.  One vectorized pass
        over the whole stream.
        """
        syms = self.syms.astype(np.intp)  # numpy gathers by a narrow index run slower
        ps = self.portions
        none = [_NO_IDS]
        starts = np.concatenate(none + [p.sym_off[:-1] for p in ps])
        ends = np.concatenate(none + [p.sym_off[1:] for p in ps])
        tiles = np.append(starts, len(syms))
        if tiles[0] != 0 or not np.array_equal(tiles[1:], ends) or (ends <= starts).any():
            raise ValueError("logs do not tile the symbol stream")
        is_aa, is_d = syms == EV_AA, syms == EV_D
        starts_aa, ends_d = is_aa[starts], is_d[ends - 1]
        if is_aa.sum() != starts_aa.sum() or is_d.sum() != ends_d.sum():
            raise ValueError("AA inside a log or D before its end")
        # the D and P entries before a symbol, counted over all portions' side
        # arrays, are those of the events before it
        ev = np.flatnonzero(syms < MOVE_BASE)
        p_ev = np.append(0, np.cumsum(_P_ENTRIES[syms[ev]]))

        def entries_before(at):
            k = np.searchsorted(ev, at)
            return k, p_ev[k]

        d_at, p_at = entries_before(tiles)  # each log's first entries, then the totals
        bounds = np.cumsum([0] + [len(p.ids) for p in ps])
        if not (
            np.array_equal(np.diff(d_at[bounds]), [len(p.d_vals) for p in ps])
            and np.array_equal(np.diff(p_at[bounds]), [len(p.p_vals) for p in ps])
        ):
            raise ValueError("log side arrays disagree with the log's events")

        # a log runs from its start to its end, both within its portion
        step = min(self.period, self.t_max)  # h * period == h * step for any portion h
        lo = np.repeat(np.arange(len(ps)), np.diff(bounds)) * step
        pe = lo + np.minimum(step, self.t_max - lo)
        d_all = np.concatenate(none + [p.d_vals for p in ps])
        start, end = lo.copy(), pe.copy()
        start[starts_aa] = d_all[d_at[:-1][starts_aa]]
        end[ends_d] = d_all[d_at[1:][ends_d] - 1]
        if (starts_aa & (start <= lo)).any() or (end < start).any() or (end > pe).any():
            raise ValueError("AA or D instant outside its portion")
        # every instant fits int64 and every span and gap is non-negative, so
        # a log's running time is exact in uint64 until it first passes the end
        inc = np.asarray(self.dict.sym_span)[syms].astype(np.uint64)
        gaps = syms[ev] >= EV_RNM  # RNM and RM; AA and D take no time
        inc[ev[gaps]] = d_all[gaps].astype(np.uint64) + 1
        run = np.cumsum(inc)
        run -= np.repeat(run[starts] - inc[starts], ends - starts)
        want = (end - start).astype(np.uint64)
        if (np.maximum.reduceat(run, starts) > want).any() or (run[ends - 1] != want).any():
            raise ValueError("log instants do not add up to its end")

        # each symbol's (dx, dy), an RM's read off its spiral code; every one
        # is under side along each axis, so the sums below are exact
        rm = syms[ev] == EV_RM
        codes = np.concatenate(none + [p.p_vals for p in ps])[p_ev[:-1][rm]]
        mx, my = np.asarray(self.dict.sym_dx)[syms], np.asarray(self.dict.sym_dy)[syms]
        side = self.side
        if int(codes.max(initial=0)) > spiral.max_code_for_radius(side - 1) or any(
            m.max(initial=0) >= side or m.min(initial=0) <= -side for m in (mx, my)
        ):
            raise ValueError("a log symbol moves past the grid side")
        if len(codes):
            mx[ev[rm]], my[ev[rm]] = spiral.decode_array(codes)

        # checkpoint c of log g sits before symbol at[c] = body[g] + j * stride,
        # j >= 1; after the AA every symbol takes time, so its instants rise
        stride = self._stride = STRIDE
        body = starts + starts_aa
        n_cp = np.maximum(ends - body - 1, 0) // stride
        cp_at = np.append(0, np.cumsum(n_cp))
        of = np.repeat(np.arange(len(starts)), n_cp)
        at = body[of] + (np.arange(cp_at[-1]) - cp_at[of] + 1) * stride
        # the log starts and checkpoints cut the stream in order: log g's
        # start is cut rows[g] and its checkpoints follow
        rows = np.arange(len(cp_at)) + cp_at
        cp_rows = of + 1 + np.arange(cp_at[-1])
        cuts = np.empty(rows[-1], dtype=np.intp)
        cuts[rows[:-1]], cuts[cp_rows] = starts, at
        cp_xy, tot_xy = [], []
        for m in (mx, my):
            m = np.append(0, np.cumsum(np.add.reduceat(m, cuts)))  # moves before each cut
            cp_xy.append(m[cp_rows] - m[rows[of]])
            tot_xy.append(m[rows[1:]] - m[rows[:-1]])
        cp_d, cp_p = entries_before(at)
        self.checkpoints = Checkpoints(*map(_narrow, (
            cp_at, run[at - 1].astype(np.int64), *cp_xy, cp_d - d_at[of], cp_p - p_at[of],
            *tot_xy,
        )))
        self._cp = Checkpoints(*map(memoryview, self.checkpoints))

        for p, a, b in zip(ps, bounds[:-1], bounds[1:]):
            p.first = int(a)
            p.d_off = d_at[a:b + 1] - d_at[a]
            p.p_off = p_at[a:b + 1] - p_at[a]
            p.starts_aa, p.ends_d, p.last_covered = starts_aa[a:b], ends_d[a:b], end[a:b]
            p.app, p.dis = p.ids[p.starts_aa], p.ids[p.ends_d]

    @property
    def n_portions(self):
        return len(self.portions)

    def portion_end(self, h):
        return min((h + 1) * self.period, self.t_max)

    def appearing(self, h):
        """Ids absent from snapshot h whose portion-h log opens with AA."""
        return self.portions[h].app if h < len(self.portions) else _NO_IDS

    def disappeared(self, h):
        """Ids whose portion-(h-1) log closes with D before snapshot h."""
        return self.portions[h - 1].dis if 0 < h <= len(self.portions) else _NO_IDS

    def first_anchor(self, h, oid):
        """(instant, position) of an appearance-opened log; None otherwise."""
        p = self.portions[h]
        i = p.find(oid)
        if i < 0 or not p.starts_aa[i]:
            return None
        t = int(p.d_vals[p.d_off[i]])
        x = int(p.p_vals[p.p_off[i]])
        y = int(p.p_vals[p.p_off[i] + 1])
        return t, (x, y)

    def last_anchor(self, h, oid):
        """(instant, position) of a D-closed log; None otherwise."""
        p = self.portions[h]
        i = p.find(oid)
        if i < 0 or not p.ends_d[i]:
            return None
        t = int(p.d_vals[p.d_off[i + 1] - 1])
        x = int(p.p_vals[p.p_off[i + 1] - 2])
        y = int(p.p_vals[p.p_off[i + 1] - 1])
        return t, (x, y)

    # -- walkers ---------------------------------------------------------

    def elements(self, oid, t_c, p_c, t_end, seek=None):
        """Walk forward from (t_c, p_c), the start of portion
        ``t_c // period``'s log, yielding ``(sym, t, p)`` per element until
        the first one that reaches ``t_end``.

        A move symbol comes with the state it reaches when applied whole (the
        consumer clips it with ``move_jump``); an AA/RM/RNM comes as
        ``sym=None`` with the state it sets.  The AA opening the first log is
        the start state and is not yielded.  D ends a log and is skipped: a
        later portion's AA re-anchors the walk.  With a ``seek`` instant,
        each log is entered at its last checkpoint at or before ``seek``,
        yielded as ``sym=None``, so the elements it skips all end by then.
        """
        d = self.dict
        span, dx, dy = d.sym_span, d.sym_dx, d.sym_dy
        syms = self._syms
        cp = self._cp
        t_start = t_c
        x, y = p_c
        h = t_c // self.period
        while t_c < t_end and h < len(self.portions) and h * self.period < t_end:
            p = self.portions[h]
            h += 1
            i = p.find(oid)
            if i < 0:
                continue
            d_vals, p_vals = memoryview(p.d_vals), memoryview(p.p_vals)
            d0, p0 = int(p.d_off[i]), int(p.p_off[i])
            s, s_end = int(p.sym_off[i]), int(p.sym_off[i + 1])
            di, pi = d0, p0
            if syms[s] == EV_AA:
                t_c, x, y = d_vals[d0], p_vals[p0], p_vals[p0 + 1]
                di, pi, s = d0 + 1, p0 + 2, s + 1
                if t_c != t_start:
                    yield None, t_c, (x, y)
                    if t_c >= t_end:
                        return
            g = p.first + i
            lo, hi = cp.off[g], cp.off[g + 1]
            if seek is not None and lo < hi:
                j = bisect_right(cp.t, seek - t_c, lo, hi) - 1
                if j >= lo:
                    s += (j - lo + 1) * self._stride
                    di, pi = d0 + cp.d[j], p0 + cp.p[j]
                    t_c, x, y = t_c + cp.t[j], x + cp.x[j], y + cp.y[j]
                    yield None, t_c, (x, y)
                    if t_c >= t_end:
                        return
            for sym in syms[s:s_end]:
                if sym >= MOVE_BASE:
                    t_c += span[sym]
                    x += dx[sym]
                    y += dy[sym]
                elif sym == EV_D:
                    break
                else:  # RNM or RM: AA only opens a log
                    t_c += d_vals[di] + 1
                    di += 1
                    if sym == EV_RM:  # displaced by a spiral code
                        mdx, mdy = spiral.decode(p_vals[pi])
                        x += mdx
                        y += mdy
                        pi += 1
                    sym = None
                yield sym, t_c, (x, y)
                if t_c >= t_end:
                    return

    def elements_backward(self, h, oid, t_c, p_c, t_floor, seek=False):
        """Walk portion ``h``'s log backward from its end state (t_c, p_c),
        yielding ``(sym, t, p)``, the state before each element, until the
        first one that reaches ``t_floor``.

        The log is read in place from its end, the side-array cursors moving
        down.  ``sym`` is the move symbol, or None for an event; an AA or D
        sets the state to its payload.  ``h`` is explicit because a lone-D log
        may sit on the snapshot instant that starts the next portion.  With
        ``seek``, the walk starts at the log's first checkpoint at or after
        ``t_floor``, yielded as ``sym=None``: the log's start is the end state
        less the log's net displacement.
        """
        d = self.dict
        span, dx, dy = d.sym_span, d.sym_dx, d.sym_dy
        syms = self._syms
        p = self.portions[h]
        i = p.find(oid)
        if i < 0:
            return
        d_vals, p_vals = memoryview(p.d_vals), memoryview(p.p_vals)
        di, pi = int(p.d_off[i + 1]), int(p.p_off[i + 1])
        s0, s = int(p.sym_off[i]), int(p.sym_off[i + 1])
        x, y = p_c
        cp = self._cp
        g = p.first + i
        lo, hi = cp.off[g], cp.off[g + 1]
        if seek and lo < hi:
            aa = syms[s0] == EV_AA
            d0, p0 = int(p.d_off[i]), int(p.p_off[i])
            t0 = d_vals[d0] if aa else h * self.period
            j = bisect_left(cp.t, t_floor - t0, lo, hi)
            if j < hi:
                s = s0 + aa + (j - lo + 1) * self._stride
                di, pi = d0 + cp.d[j], p0 + cp.p[j]
                t_c = t0 + cp.t[j]
                x += cp.x[j] - cp.tot_x[g]
                y += cp.y[j] - cp.tot_y[g]
                yield None, t_c, (x, y)
                if t_c <= t_floor:
                    return
        for sym in reversed(syms[s0:s]):
            if sym >= MOVE_BASE:
                t_c -= span[sym]
                x -= dx[sym]
                y -= dy[sym]
            elif sym == EV_D or sym == EV_AA:
                di -= 1
                pi -= 2
                t_c, x, y = d_vals[di], p_vals[pi], p_vals[pi + 1]
                sym = None
            else:
                di -= 1
                t_c -= d_vals[di] + 1
                if sym == EV_RM:  # displaced by a spiral code
                    pi -= 1
                    mdx, mdy = spiral.decode(p_vals[pi])
                    x -= mdx
                    y -= mdy
                sym = None
            yield sym, t_c, (x, y)
            if t_c <= t_floor:
                return


def move_jump(dictionary, p, t_c, t_e, sym):
    """Apply ``sym`` forward from (t_c, p), stopping exactly at t_e.

    Parts that fit before t_e are applied whole in O(1); a part straddling
    it is descended with an explicit stack (left child first).
    """
    span, dx, dy, pairs = (
        dictionary.sym_span, dictionary.sym_dx, dictionary.sym_dy, dictionary.sym_pairs
    )
    x, y = p
    stack = [sym]
    while stack and t_c < t_e:
        s = stack.pop()
        if t_c + span[s] <= t_e:  # a terminal always fits: span 1
            x += dx[s]
            y += dy[s]
            t_c += span[s]
        else:
            stack.append(pairs[s, 1])
            stack.append(pairs[s, 0])
    return t_c, (x, y)


def move_back(dictionary, p, t_floor, t_c, sym):
    """Undo ``sym`` backward from (t_c, p), stopping exactly at t_floor."""
    span, dx, dy, pairs = (
        dictionary.sym_span, dictionary.sym_dx, dictionary.sym_dy, dictionary.sym_pairs
    )
    x, y = p
    stack = [sym]
    while stack and t_c > t_floor:
        s = stack.pop()
        if t_c - span[s] >= t_floor:
            x -= dx[s]
            y -= dy[s]
            t_c -= span[s]
        else:
            stack.append(pairs[s, 0])  # undo the right child first
            stack.append(pairs[s, 1])
    return t_c, (x, y)


def move_steps(dictionary, p, t_c, t_e, sym):
    """Expand ``sym`` into per-instant pairs (t, position), truncated at t_e."""
    dx, dy, pairs = dictionary.sym_dx, dictionary.sym_dy, dictionary.sym_pairs
    nt_base = dictionary.nt_base
    out = []
    x, y = p
    stack = [sym]
    while stack and t_c < t_e:
        s = stack.pop()
        if s < nt_base:
            x += dx[s]
            y += dy[s]
            t_c += 1
            out.append((t_c, (x, y)))
        else:
            stack.append(pairs[s, 1])
            stack.append(pairs[s, 0])
    return out


_NARROW = [
    (np.iinfo(t).min, np.iinfo(t).max, t)
    for t in (np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.uint64, np.int64)
]


def _narrow(a):
    """Integer array ``a`` in the narrowest dtype that holds its range."""
    lo, hi = (int(a.min()), int(a.max())) if len(a) else (0, 0)
    return a.astype(next(t for t_lo, t_hi, t in _NARROW if t_lo <= lo and hi <= t_hi))
