"""Per-object movement logs between snapshots, and their traversal.

The timeline is cut into portions: portion h covers the instants
(h*period, min((h+1)*period, t_max)].  A snapshot instant is therefore also
the last instant of the portion before it.  Queries read logs forward from
their start, the earlier snapshot or an AA anchor, seeking to a checkpoint;
no query reads them backward.

Each (portion, object) log is one slice of the jointly compressed symbol
stream plus its entries in two side arrays, aligned with its event symbols,
in order:

* D entry:  gap length for RM/RNM, absolute instant for AA/D;
* P entry:  spiral code for RM (one value), absolute x, y for AA/D (two
  values), nothing for RNM.

A file stores each portion's logs as its object ids, each log's symbol
count and the portion's D and P entries (``LogStore.portion``).  In memory
``LogStore`` keeps one table of all logs instead, numbered in (portion, id)
order (``LogTable``), with the D and P entries of all portions as two flat
arrays.  Where each log's entries start follows from its event symbols, so
the offsets are derived on construction, along with each log's AA/D flags
and end instant.  Every array is held in the narrowest dtype for its range.

A log looks like ``[AA?] (move | RM | RNM)* [D?]``: AA opens a log whose
object was absent at the starting snapshot, D closes a log whose object
stops emitting before the portion ends (its payload repeats the last known
instant/position: the instant is the log's end, which ``candidates`` reads
without a walk, and loading checks the log's moves against the position).

Every ``STRIDE`` compressed symbols after its opening AA, a log has a
checkpoint: the instant, position and D/P side-array cursors before that
symbol, relative to the log's start.  The log starts and checkpoints cut
the logs into blocks of at most ``STRIDE`` symbols, and each block after
a log's first has a box holding every position it visits, relative to
where it starts: the rules' MBR idea one level up, so a walk can pass over
a block that misses a query region.  Each log also has the box of every
position it visits, one level up again, placed at absolute cells
(``log_box``): it stands for the log among a query's candidate rows
(``candidates``), and an interval's walk tests a log's first block with it.
Checkpoints and boxes follow from the symbols, the rule tables and the
side arrays, so they are derived on construction and never stored in a
file.

Every ``COLUMN_SPAN`` instants after its snapshot, a portion has a column
(``Columns``): for each of its logs that has started and not closed by
then, the box of every position the log visits from its last element
boundary at or before that instant up to the next column's instant (or to
its end, for a portion's last column), placed at absolute cells.  A column
is the snapshot's idea between snapshots, with the rules' MBR idea on top:
a time slice or kNN query at t_q lies in its latest column's span, so its
candidate rows are the column's states and the logs that open with AA
after the column, not the portion's logs.  A time interval's window may
pass the next column, so it always takes the portion's logs.  The
candidates are walked from their log's start, seeking to the last
checkpoint at or before t_q, so a column holds no cursors.  Columns follow
from the logs and the snapshots' cells: construction derives them, and the
log boxes, relative to each log's start, and ``place`` places them once
the snapshots are known.  A portion of at most ``COLUMN_SPAN`` instants has
none.

Logs are named by their number: ``find`` gives an object's log of a
portion, ``appearing`` gives the logs that open with AA, and a
``candidates`` row holds its log's, so each walk looks its log up at most
once.

The candidate source and the traversal primitives:

* ``LogStore.candidates`` — the one source of candidates between
  snapshots: a query's rows of one portion (object ids, logs, placed
  boxes) as numpy arrays, cut to the logs that end at or after its instant
  or its window's start.  A time slice or interval masks them by box
  against its region, and kNN ranks them by the distance from its point
  to their boxes;
* ``LogStore.state_at`` — one plain loop over one log from its start to
  one instant t_q, for the object, time-slice and kNN queries: it enters
  the log at the last checkpoint at or before t_q, applies whole moves,
  RM/RNM gaps and spiral codes up to t_q, stops at a closing D, and
  returns the state after the last element that ends by t_q, the move
  symbol that straddles t_q (for ``move_jump``) and the move symbols it
  read.  It yields nothing;
* ``LogStore.elements`` — forward walker over one log from its
  start (the snapshot cell or the AA anchor) to its end, for the queries
  that need every state, trajectory and time interval; it decodes every
  event and yields one ``(sym, t, p)`` state per element: a move symbol
  with the state it reaches applied whole, or ``sym=None`` with the state
  an RM/RNM or a checkpoint sets.  Given a seek instant, it enters the log
  at the last checkpoint at or before that instant and walks on from
  there; given a region, it passes over each block whose box misses it.
  A trajectory steps from portion to portion itself;
* ``LogStore.elements_backward`` — the mirror over one portion's log, read
  in place from its end, or with seeking from the first checkpoint at or
  after the floor, yielding the state before each element; no query walks
  backward, and perfbench/tracing.py patches it;
* ``move_jump`` — clips a symbol that straddles a time limit, descending
  into the rule with an explicit stack; ``move_back`` undoes one backward,
  which no query calls;
* ``move_steps`` — expand a symbol to terminals, one (instant, position)
  per step.

The walkers read span, displacement and pairs from the symbol-indexed
tables of ``RuleDictionary``, and all of them read the log table and the
checkpoints through memoryviews.  ``candidates``, and the box mask or the
ranking a query applies to its rows, are numpy passes.  Over the
benchmark's seed-1 queries (2-vCPU x86 host) a slice's candidate step takes
about 14 us on walk-d720 and 8.4 us on appear-d30, an interval's 8.5 us
per portion, and kNN's candidates and ranking 21 and 15 us; the list
passes over a column and over a portion's log boxes, and kNN's own numpy
pass, that they replace took 16, 7.9, 7.2-7.6, 24 and 21 us.  A walk to
one instant (``state_at``, then ``move_jump`` on the straddling symbol),
over the walks of the same object and kNN queries, takes about 3.4 us on
walk-d720 and 2.7 us on appear-d30, where driving ``elements`` to the
instant took 4.3 and 3.6 us.
"""

import collections
from bisect import bisect_left, bisect_right

import numpy as np

from . import spiral
from .bits import narrow
from .grammar import EV_AA, EV_D, EV_RM, EV_RNM, MOVE_BASE

STRIDE = 16  # compressed symbols between two checkpoints of a log
COLUMN_SPAN = 64  # instants between two columns of a portion
# the most columns and column states an index lays out, unless its stream
# holds more than a sixteenth as many symbols; past that it lays none
_COLUMN_LIMIT = 1 << 20
_P_ENTRIES = np.array([2, 2, 0, 1])  # P entries of a D, AA, RNM and RM event

# One row per log, in log order (portion, then id): log g belongs to object
# ids[g], its symbols are syms[sym_off[g]:sym_off[g+1]] and its entries
# d_vals[d_off[g]:d_off[g+1]] and p_vals[p_off[g]:p_off[g+1]]; starts_aa and
# ends_d flag an opening AA and a closing D, and end is its last instant.
LogTable = collections.namedtuple("LogTable", "ids sym_off d_off p_off starts_aa ends_d end")

# Checkpoints of all logs, indexed like the log table: log g's checkpoints
# are off[g]..off[g+1]-1, and t, x, y, d and p hold each one's instant,
# position and side-array cursors relative to the log's start; tot_x and
# tot_y hold each log's net displacement.  The log starts and checkpoints
# cut the logs into blocks, and box holds one row per checkpoint: the box
# (x1, y1, x2, y2) of every position the block from that checkpoint visits,
# relative to the checkpoint's position, so log g's later blocks are rows
# off[g]..off[g+1]-1.  A log's first block has no row: ``LogStore.log_box``
# holds the box of every position the whole log visits, placed at its cells.
Checkpoints = collections.namedtuple("Checkpoints", "off t x y d p tot_x tot_y box")

# Column states of all logs.  Portion h has a column at each instant
# h * period + j * COLUMN_SPAN, j >= 1, before its end: column k is
# column j of portion h for k = h * per + j - 1, with ``per`` the columns
# of a whole portion.  Column k's states are rows off[k]..off[k+1]-1, one
# per log of the portion that has started by the column instant and not
# closed with a D before it, in log order: the log's number and a box
# (x1, y1, x2, y2) at absolute cells, as ``LogStore.log_box``, holding
# every position the log visits from its last element boundary at or
# before the column instant up to the next column's instant, or to the
# log's end for the portion's last column.
Columns = collections.namedtuple("Columns", "off log box")

_NO_IDS = np.zeros(0, dtype=np.int64)


class LogStore:
    def __init__(self, dictionary, period, t_max, side, syms, portions):
        """``portions`` holds each portion's logs as a file stores them:
        (object ids, symbol counts, D entries, P entries)."""
        self.dict = dictionary
        self.period = period
        self.t_max = t_max
        self.side = side
        syms = np.asarray(syms, dtype=np.int64)
        if len(syms) and (syms.min() < 0 or syms.max() >= len(dictionary.sym_span)):
            raise ValueError("log symbol is not a known move, event or rule")
        self.syms = narrow(syms)
        self._syms = memoryview(self.syms)
        self._derive(portions)

    def _derive(self, portions):
        """Fill the log table (portion bounds, the D and P entries, each
        log's offsets, AA/D flags and end instant) and the checkpoints,
        raising ValueError unless the logs are well formed.

        The logs must tile ``syms`` in order, each non-empty, with AA only
        opening a log and D only closing one.  A portion's side arrays hold
        one D entry per event and two P entries per AA or D plus one per RM.
        Each log's instants add up: its start (the AA instant, else the
        portion's snapshot) plus its move spans and its gaps + 1 reaches its
        D instant, else the portion end, and an AA instant lies inside the
        portion.  No move symbol and no RM code moves ``side`` or more along
        an axis, and every AA and D position lies inside the grid.

        The same pass derives the checkpoints (see ``Checkpoints``) every
        ``STRIDE`` symbols after each log's opening AA, each log's box and
        that of each later block they cut, and the column states
        (``_derive_columns``).  One vectorized pass over the whole stream.
        """
        syms = self.syms.astype(np.intp)  # numpy gathers by a narrow index run slower
        ids, lens, d_all, p_all = (
            np.concatenate([_NO_IDS] + [np.asarray(p[c], dtype=np.int64) for p in portions])
            for c in range(4)
        )
        bounds = np.cumsum([0] + [len(p[0]) for p in portions])
        self.n_portions = len(portions)
        tiles = np.append(0, np.cumsum(lens))  # a wrapped sum shows as a fall
        starts, ends = tiles[:-1], tiles[1:]
        if tiles[-1] != len(syms) or (ends <= starts).any():
            raise ValueError("logs do not tile the symbol stream")
        is_aa, is_d = syms == EV_AA, syms == EV_D
        starts_aa, ends_d = is_aa[starts], is_d[ends - 1]
        if is_aa.sum() != starts_aa.sum() or is_d.sum() != ends_d.sum():
            raise ValueError("AA inside a log or D before its end")
        # the D and P entries before a symbol are those of the events before it
        ev = np.flatnonzero(syms < MOVE_BASE)
        p_ev = np.append(0, np.cumsum(_P_ENTRIES[syms[ev]]))

        def entries_before(at):
            k = np.searchsorted(ev, at)
            return k, p_ev[k]

        d_at, p_at = entries_before(tiles)  # each log's first entries, then the totals
        for at, c in ((d_at, 2), (p_at, 3)):
            if not np.array_equal(at[bounds], np.cumsum([0] + [len(p[c]) for p in portions])):
                raise ValueError("log side arrays disagree with the log's events")

        # a log runs from its start to its end, both within its portion
        step = min(self.period, self.t_max)  # h * period == h * step for any portion h
        of_portion = np.repeat(np.arange(len(portions)), np.diff(bounds))
        lo = of_portion * step
        pe = lo + np.minimum(step, self.t_max - lo)
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
        clock = np.cumsum(inc)  # each log's run, offset by the runs before it
        clock_0 = clock[starts] - inc[starts]
        run = clock - np.repeat(clock_0, ends - starts)
        want = (end - start).astype(np.uint64)
        if (np.maximum.reduceat(run, starts) > want).any() or (run[ends - 1] != want).any():
            raise ValueError("log instants do not add up to its end")

        # each symbol's (dx, dy), an RM's read off its spiral code; every one
        # is under side along each axis, so the int64 sums below are exact
        rm = syms[ev] == EV_RM
        codes = p_all[p_ev[:-1][rm]]
        # widened first: an RM's displacement need not fit the tables' dtype
        mx = np.asarray(self.dict.sym_dx)[syms].astype(np.int64)
        my = np.asarray(self.dict.sym_dy)[syms].astype(np.int64)
        side = self.side
        if int(codes.max(initial=0)) > spiral.max_code_for_radius(side - 1) or any(
            m.max(initial=0) >= side or m.min(initial=0) <= -side for m in (mx, my)
        ):
            raise ValueError("a log symbol moves past the grid side")
        anchor_p = p_ev[:-1][syms[ev] < EV_RNM]  # AA and D: an absolute x, y
        if (p_all[np.append(anchor_p, anchor_p + 1)] >= side).any():  # none is negative
            raise ValueError("an AA or D position lies outside the grid")
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
        # the block from each cut to the next visits the positions before and
        # after each of its symbols and, inside a rule, the rule's MBR; a
        # log's box is the box of its blocks together
        mbr = np.asarray(self.dict.sym_mbr).take(syms, axis=0)  # take: mbr[syms] runs far slower
        cp_xy, tot_xy, box, whole, before, reach = [], [], [], [], [], []
        for axis, m in enumerate((mx, my)):
            pos = np.append(0, np.cumsum(m))  # position before each symbol
            before.append(pos)
            cut = np.append(pos[cuts], pos[-1])  # before each cut, then the total
            cp_xy.append(cut[cp_rows] - cut[rows[of]])
            tot_xy.append(cut[rows[1:]] - cut[rows[:-1]])
            pos = pos[:-1]
            for col, f in ((axis, np.minimum), (axis + 2, np.maximum)):
                reach.append(pos + f(mbr[:, col], m))  # widened to m's int64
                blocks = f.reduceat(reach[-1], cuts)
                box.append(blocks[cp_rows] - cut[cp_rows])
                whole.append(f.reduceat(blocks, rows[:-1]) - cut[rows[:-1]])
        cp_d, cp_p = entries_before(at)
        self.checkpoints = Checkpoints(*map(narrow, (
            cp_at, run[at - 1].astype(np.int64), *cp_xy, cp_d - d_at[of], cp_p - p_at[of],
            *tot_xy, np.column_stack(box[::2] + box[1::2]),
        )))
        self._cp = Checkpoints(*map(memoryview, self.checkpoints))

        self.bounds, self.d_vals, self.p_vals = map(narrow, (bounds, d_all, p_all))
        ids, tiles, d_at, p_at, end_at = map(narrow, (ids, tiles, d_at, p_at, end))
        self.table = LogTable(ids, tiles, d_at, p_at, starts_aa, ends_d, end_at)
        self._bounds, self._d, self._p = map(memoryview, (self.bounds, self.d_vals, self.p_vals))
        self._log = LogTable(*map(memoryview, self.table))
        self.log_box = None  # placed by ``place``
        self._unplaced = np.column_stack(whole[::2] + whole[1::2]), *self._derive_columns(
            step, of_portion, start, end, pe, starts, ends, clock, clock_0,
            before, reach[::2] + reach[1::2])

    def _derive_columns(self, step, of_portion, start, end, pe, starts, ends, clock, clock_0,
                        before, reach):
        """Derive the column states (see ``Columns``) in one vectorized
        pass from each log's portion, start and end instants and symbol
        tiles, the running time after each symbol (``clock``, each log's
        from ``clock_0`` on), the position before each symbol relative to
        the stream's start (``before``, x then y), and the least x and y and
        the greatest x and y each symbol reaches, in the same frame
        (``reach``), as ``(per, Columns)`` with ``per`` the columns of a
        whole portion.  Their boxes stay relative to each log's start until
        ``place``.

        An index lays out no columns when they would number more than
        ``_COLUMN_LIMIT`` (or 16 per stream symbol) with their states: a
        period far longer than the logs' symbols then costs no memory.
        """
        w = self._span = COLUMN_SPAN
        self._per, self.columns = 0, None  # no column is read before ``place``
        per = max(step - 1, 0) // w  # a last portion cut short may have fewer
        if per:
            lo = of_portion * step
            first = np.maximum(-((lo - start) // w), 1)  # columns at or after the start
            last = np.minimum(end - lo, pe - lo - 1) // w  # at or before the end
            n = np.maximum(last - first + 1, 0)  # at most per each
            limit = max(_COLUMN_LIMIT, 16 * len(clock))
            if per > limit or self.n_portions * per + int(n.sum()) > limit:
                per = 0
        if not per:
            return 0, Columns(np.zeros(1, dtype=np.uint8), np.zeros(0, dtype=np.uint8),
                              np.zeros((0, 4), dtype=np.uint8))
        g = np.repeat(np.arange(len(n)), n)
        j = first[g] + np.arange(len(g)) - np.repeat(np.cumsum(n) - n, n)
        at = (j * w - (start - lo)[g]).astype(np.uint64)  # after the log's start
        # symbol i ends the log's last element at or before the column
        # instant, or i = starts[g] - 1 when its first one ends after it; a
        # zero-span symbol opening the next log may tie with the end
        i = np.searchsorted(clock, clock_0[g] + at, side="right") - 1
        i = np.minimum(i, ends[g] - 1)
        # symbols i + 1 .. e take the log from its state past the next
        # column's instant, or to its end: e is the first to reach that
        # instant, else the log's last.  Each pair (i + 1, e + 1) bounds one
        # reduction, a sentinel past the stream keeping i + 1 = e + 1 (no
        # symbol) in range; a symbol's reach holds the position before it
        e = np.searchsorted(clock, clock_0[g] + at + np.uint64(w))
        e = np.minimum(e, ends[g] - 1)
        pairs = np.column_stack((i + 1, e + 1)).ravel()
        box = []
        for r, b, f in zip(reach, before * 2, (np.minimum,) * 2 + (np.maximum,) * 2):
            part = f.reduceat(np.append(r, 0), pairs)[::2]
            box.append(np.where(i < e, part, b[i + 1]) - b[starts[g]])
        k = of_portion[g] * per + j - 1
        order = np.argsort(k, kind="stable")
        off = np.searchsorted(k[order], np.arange(self.n_portions * per + 1))
        return per, Columns(off, g[order], np.column_stack(box)[order])

    def place(self, start):
        """Place each log's box and the column states at their cells:
        ``start`` holds each log's start cell, one (x, y) row per log.
        Until then no query reads a log box or a column."""
        log_box, per, c = self._unplaced
        at = np.tile(start, 2)  # (x, y, x, y) per log, as a box row
        self.log_box = narrow(log_box + at)
        self.columns = Columns(*map(narrow, (c.off, c.log, c.box + at[c.log])))
        self._per, self._unplaced = per, None

    def _column(self, t):
        """(instant, first row, end row) of the latest column at or before
        instant t in t's portion; None at a snapshot instant, before the
        portion's first column, or in a portion with none."""
        if not self._per:
            return None
        h, dt = divmod(t, self.period)
        if not dt or h >= self.n_portions:
            return None
        w = self._span
        j = min(dt // w, (self.portion_end(h) - h * self.period - 1) // w)
        if j < 1:
            return None
        k = h * self._per + j - 1
        a, b = self.columns.off[k:k + 2].tolist()
        return h * self.period + j * w, a, b

    def candidates(self, t, h=None):
        """The candidate rows of a query between snapshots, as three arrays:
        the object ids, the log numbers and the placed boxes (x1, y1, x2,
        y2) of logs that end at or after instant t.

        A time slice or kNN query asks at instant t alone (no ``h``): past
        its portion's first column, its rows are the column's states, each
        with its box, and the logs that open with AA after the column and at
        or before t; anywhere else, the portion's logs.  A time interval
        names each portion h its window meets, from its start t on, and
        gets the portion's logs, since a column's boxes reach only to the
        next column.  A log's row holds its ``log_box``.  One numpy pass
        over the column's or the portion's rows."""
        tab = self.table
        col = self._column(t) if h is None else None
        if col is None:
            if h is None:
                h = t // self.period
            lo, hi = self._bounds[h], self._bounds[h + 1]
            logs = (tab.end[lo:hi] >= t).nonzero()[0] + lo
            box = self.log_box.take(logs, axis=0)  # take: log_box[logs] runs slower
        else:
            c, a, b = col
            cols = self.columns
            logs, box = cols.log[a:b], cols.box[a:b]
            aa = self.appearing(t // self.period)
            if len(aa):
                t_a = self.d_vals[tab.d_off[aa]]
                aa = aa[(t_a > c) & (t_a <= t)]
                logs = np.append(logs, aa)
                box = np.concatenate((box, self.log_box.take(aa, axis=0)))
            keep = tab.end[logs] >= t
            logs, box = logs[keep], box[keep]
        return tab.ids[logs], logs, box

    def portion_end(self, h):
        return min((h + 1) * self.period, self.t_max)

    def portion(self, h):
        """Portion h's logs as a file stores them: (object ids, symbol
        counts, D entries, P entries)."""
        t, (lo, hi) = self.table, self._bounds[h:h + 2]
        return (t.ids[lo:hi], np.diff(t.sym_off[lo:hi + 1]),
                self.d_vals[t.d_off[lo]:t.d_off[hi]], self.p_vals[t.p_off[lo]:t.p_off[hi]])

    def find(self, h, oid):
        """Number of oid's portion-h log; -1 when it has none."""
        if not 0 <= h < self.n_portions:  # the last snapshot starts no portion
            return -1
        lo, hi = self._bounds[h], self._bounds[h + 1]
        ids = self._log.ids
        g = bisect_left(ids, oid, lo, hi)
        return g if g < hi and ids[g] == oid else -1

    def appearing(self, h):
        """Numbers of portion h's logs that open with AA: their objects are
        absent from snapshot h."""
        if not 0 <= h < self.n_portions:
            return _NO_IDS
        lo, hi = self._bounds[h], self._bounds[h + 1]
        return np.flatnonzero(self.table.starts_aa[lo:hi]) + lo

    def first_anchor(self, g):
        """(instant, position) of log g when it opens with AA; None
        otherwise and for g = -1, no log."""
        t = self._log
        if g < 0 or not t.starts_aa[g]:
            return None
        d, p = t.d_off[g], t.p_off[g]
        return self._d[d], (self._p[p], self._p[p + 1])

    def last_anchor(self, g):
        """(instant, position) of log g when it closes with D; None
        otherwise and for g = -1, no log.  No query calls it;
        perfbench/tracing.py patches it."""
        t = self._log
        if g < 0 or not t.ends_d[g]:
            return None
        d, p = t.d_off[g + 1], t.p_off[g + 1]
        return self._d[d - 1], (self._p[p - 2], self._p[p - 1])

    # -- walkers ---------------------------------------------------------

    def elements(self, g, t_c, p_c, t_end, seek=None, region=None):
        """Walk log g forward from its start state (t_c, p_c), yielding
        ``(sym, t, p)`` per element until the first one that reaches
        ``t_end``, else to the log's end; g = -1, no log, yields nothing.

        A move symbol comes with the state it reaches when applied whole (the
        consumer clips it with ``move_jump``); an RM/RNM comes as
        ``sym=None`` with the state it sets.  The start state is the
        portion's snapshot cell or, for a log that opens with AA, the AA
        anchor, which is not yielded.  A closing D ends the walk.  With a
        ``seek`` instant, the log is entered at its last checkpoint at or
        before ``seek``, yielded as ``sym=None``, so the elements it skips
        all end by then.

        With a ``region``, each block of the log (see ``Checkpoints``) whose
        box, placed at the block's start, misses the region is skipped whole:
        the state at its end (the next checkpoint, else the log's end) comes
        as ``sym=None``, so no position the walk skips lies in the region.
        The first block has no box of its own: it is tested with the whole
        log's placed box (``log_box``), so it is skipped only when the whole
        log misses the region.
        """
        if t_c >= t_end or g < 0:  # g = -1: no log, as at the last snapshot
            return
        d = self.dict
        span, dx, dy = d.sym_span, d.sym_dx, d.sym_dy
        syms, d_vals, p_vals, log, cp = self._syms, self._d, self._p, self._log, self._cp
        box = cp.box
        if region is not None:
            rx1, ry1, rx2, ry2 = region
        x, y = p_c
        di, pi = d0, p0 = log.d_off[g], log.p_off[g]
        s, s_end = log.sym_off[g], log.sym_off[g + 1]
        if syms[s] == EV_AA:  # the start state is the AA's
            di, pi, s = d0 + 1, p0 + 2, s + 1
        lo, hi = cp.off[g], cp.off[g + 1]
        t0, x0, y0, body = t_c, x, y, s  # the log's start state and body
        j = lo - 1  # the last checkpoint passed; lo - 1 before the first
        if seek is not None and lo < hi:
            j = bisect_right(cp.t, seek - t0, lo, hi) - 1
            if j >= lo:
                s = body + (j - lo + 1) * self._stride
                di, pi = d0 + cp.d[j], p0 + cp.p[j]
                t_c, x, y = t0 + cp.t[j], x0 + cp.x[j], y0 + cp.y[j]
                yield None, t_c, (x, y)
                if t_c >= t_end:
                    return
        while s < s_end:
            stop = s_end
            if region is not None:
                j += 1  # the block runs to checkpoint j, else to the log's end
                if j < hi:
                    stop = body + (j - lo + 1) * self._stride
                if j > lo:  # the box of the block from checkpoint j - 1
                    b = j - 1
                    x1, y1, x2, y2 = x + box[b, 0], y + box[b, 1], x + box[b, 2], y + box[b, 3]
                else:
                    x1, y1, x2, y2 = self.log_box[g].tolist()
                if x2 < rx1 or x1 > rx2 or y2 < ry1 or y1 > ry2:
                    if j < hi:
                        di, pi = d0 + cp.d[j], p0 + cp.p[j]
                        t_c, x, y = t0 + cp.t[j], x0 + cp.x[j], y0 + cp.y[j]
                    else:
                        t_c, x, y = log.end[g], x0 + cp.tot_x[g], y0 + cp.tot_y[g]
                    s = stop
                    yield None, t_c, (x, y)
                    if t_c >= t_end:
                        return
                    continue
            for sym in syms[s:stop]:
                if sym >= MOVE_BASE:
                    t_c += span[sym]
                    x += dx[sym]
                    y += dy[sym]
                elif sym == EV_D:  # closes the log
                    return
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
            s = stop

    def state_at(self, g, t_c, p_c, t_q):
        """Walk log g forward from its start state (t_c, p_c) towards
        instant t_q in one plain loop, as ``elements`` with ``seek=t_q``
        walks it, but yielding nothing.  Returns ``(t, p, sym, n)``: the
        state after the last element that ends by t_q (the start state when
        it is at or after t_q, or g = -1), the move symbol that straddles
        t_q or None, and how many move symbols the walk read.

        The consumer clips ``sym`` with ``move_jump`` from (t, p); its
        object is at t_q only if that, or t itself, reaches t_q.  A closing
        D, or a gap that passes t_q, ends the walk before t_q."""
        if t_c >= t_q or g < 0:  # g = -1: no log, as at the last snapshot
            return t_c, p_c, None, 0
        d = self.dict
        span, dx, dy = d.sym_span, d.sym_dx, d.sym_dy
        syms, d_vals, log, cp = self._syms, self._d, self._log, self._cp
        x, y = p_c
        di, pi = d0, p0 = log.d_off[g], log.p_off[g]
        s, s_end = log.sym_off[g], log.sym_off[g + 1]
        if syms[s] == EV_AA:  # the start state is the AA's
            di, pi, s = d0 + 1, p0 + 2, s + 1
        lo, hi = cp.off[g], cp.off[g + 1]
        if lo < hi:
            j = bisect_right(cp.t, t_q - t_c, lo, hi) - 1
            if j >= lo:  # enter at the last checkpoint at or before t_q
                s += (j - lo + 1) * self._stride
                di, pi = d0 + cp.d[j], p0 + cp.p[j]
                t_c, x, y = t_c + cp.t[j], x + cp.x[j], y + cp.y[j]
                if t_c == t_q:
                    return t_c, (x, y), None, 0
        n = 0
        for sym in syms[s:s_end]:
            if sym >= MOVE_BASE:
                n += 1
                t = t_c + span[sym]
                if t >= t_q:
                    if t > t_q:
                        return t_c, (x, y), sym, n
                    return t, (x + dx[sym], y + dy[sym]), None, n
                t_c = t
                x += dx[sym]
                y += dy[sym]
            elif sym == EV_D:  # closes the log
                break
            else:  # RNM or RM: AA only opens a log
                t = t_c + d_vals[di] + 1
                if t > t_q:  # absent at t_q
                    break
                t_c = t
                di += 1
                if sym == EV_RM:  # displaced by a spiral code
                    mdx, mdy = spiral.decode(self._p[pi])
                    x += mdx
                    y += mdy
                    pi += 1
                if t_c == t_q:
                    break
        return t_c, (x, y), None, n

    def elements_backward(self, h, g, t_c, p_c, t_floor, seek=False):
        """Walk log g of portion ``h`` backward from its end state (t_c, p_c),
        yielding ``(sym, t, p)``, the state before each element, until the
        first one that reaches ``t_floor``.

        The log is read in place from its end, the side-array cursors moving
        down.  ``sym`` is the move symbol, or None for an event; an AA or D
        sets the state to its payload.  As the forward walk, it covers the
        one log.  With ``seek``, the walk starts at the log's first
        checkpoint at or after ``t_floor``, yielded as ``sym=None``: the
        log's start is the end state less the log's net displacement, and
        its instant the AA's, else portion h's snapshot's.  No query calls
        it; perfbench/tracing.py patches it.
        """
        d = self.dict
        span, dx, dy = d.sym_span, d.sym_dx, d.sym_dy
        syms, d_vals, p_vals, log, cp = self._syms, self._d, self._p, self._log, self._cp
        if g < 0:
            return
        di, pi = log.d_off[g + 1], log.p_off[g + 1]
        s0, s = log.sym_off[g], log.sym_off[g + 1]
        x, y = p_c
        lo, hi = cp.off[g], cp.off[g + 1]
        if seek and lo < hi:
            aa = syms[s0] == EV_AA
            d0, p0 = log.d_off[g], log.p_off[g]
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
    """Undo ``sym`` backward from (t_c, p), stopping exactly at t_floor.
    No query calls it; perfbench/tracing.py patches ``engine.move_back``."""
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

