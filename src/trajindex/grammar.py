"""Re-Pair grammar over movement logs, with per-rule travel metadata.

Log symbols share one integer alphabet:

* 0..3 are event markers — ``EV_D`` (stops emitting), ``EV_AA`` (starts
  emitting), ``EV_RNM`` (gap, reappears in place), ``EV_RM`` (gap, reappears
  displaced).  Their payloads live in side arrays, not in the stream.
* spiral move code m is stored as ``m + MOVE_BASE``.
* nonterminals are numbered from ``alphabet_size`` upward, in creation
  order, so every rule only references strictly smaller ids.

Compression repeatedly replaces the most frequent *eligible* pair with a
fresh nonterminal: a pair is eligible when neither side is an event marker
and both halves sit in the same input stream.  Frequencies count
non-overlapping occurrences (a run of L equal symbols counts floor(L/2));
ties pick the smallest (a, b); replacement scans left to right.  The loop
stops when no pair occurs twice.  Everything is deterministic, which the
serialization round-trip tests rely on.

After compression every rule s -> (a, b) is annotated bottom-up, one
grammar level at a time, with the time span it covers, its net
displacement, and the bounding box of the origin plus every intermediate
position of its expansion ("relative MBR", origin included) — the payloads
that let traversals jump over whole rules.  They follow from the pairs, so
an index file stores only the pairs and loading derives the rest.
"""

import numpy as np

from . import spiral

EV_D = 0
EV_AA = 1
EV_RNM = 2
EV_RM = 3
MOVE_BASE = 4

_HOLE = -1


def repair_compress(streams, nt_base):
    """Compress integer streams jointly; returns (streams, rule pair list).

    ``nt_base`` is the first nonterminal id (= alphabet size).  The input
    streams may be empty; symbols must be < nt_base.
    """
    lengths = [len(s) for s in streams]
    if sum(lengths) == 0:
        return [np.zeros(0, dtype=np.int64) for _ in streams], []
    arr = np.concatenate([np.asarray(s, dtype=np.int64) for s in streams])
    sid = np.repeat(np.arange(len(streams), dtype=np.int64), lengths)
    if arr.min() < 0 or arr.max() >= nt_base:
        raise ValueError("stream symbol outside the terminal alphabet")
    rules = []
    nt_next = nt_base
    while len(arr) >= 2:
        left, right = arr[:-1], arr[1:]
        valid = (
            (sid[:-1] == sid[1:]) & (left >= MOVE_BASE) & (right >= MOVE_BASE)
        )
        if not valid.any():
            break
        # equal-symbol runs: only even in-run offsets count (non-overlap)
        start = np.empty(len(arr), dtype=bool)
        start[0] = True
        start[1:] = (arr[1:] != arr[:-1]) | (sid[1:] != sid[:-1])
        first_idx = np.flatnonzero(start)[np.cumsum(start) - 1]
        pos_in_run = np.arange(len(arr)) - first_idx
        countable = valid & ((left != right) | (pos_in_run[:-1] % 2 == 0))
        if not countable.any():
            break
        keys = left * nt_next + right
        uniq, counts = np.unique(keys[countable], return_counts=True)
        best = int(np.argmax(counts))  # first max = smallest key on ties
        if counts[best] < 2:
            break
        a, b = divmod(int(uniq[best]), nt_next)
        match = valid & (left == a) & (right == b)
        if a == b:
            match &= pos_in_run[:-1] % 2 == 0
        pos = np.flatnonzero(match)
        arr[pos] = nt_next
        arr[pos + 1] = _HOLE
        keep = arr != _HOLE
        arr = arr[keep]
        sid = sid[keep]
        rules.append((a, b))
        nt_next += 1
    bounds = np.searchsorted(sid, np.arange(1, len(streams)))
    return [part.copy() for part in np.split(arr, bounds)], rules


class RuleDictionary:
    """Enriched Re-Pair rules.

    Each field is one int64 table indexed by symbol id, covering event
    markers (all zero), terminal moves and rules alike: span, net
    displacement, relative MBR (x1, y1, x2, y2 around the origin) and the
    rule's pair (zero below ``nt_base``).  Traversals read them through the
    memoryviews ``sym_span``, ``sym_dx``, ``sym_dy``, ``sym_mbr`` and
    ``sym_pairs``; ``span``, ``dx``, ``dy``, ``mbr`` and ``pairs`` are numpy
    views of the rule rows.  Every table follows from the pairs alone.
    """

    def __init__(self, max_move_code, pairs):
        """Derive the tables; members must be moves or earlier rules."""
        self.max_move_code = int(max_move_code)
        nt = self.nt_base = MOVE_BASE + self.max_move_code + 1
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = nt + len(pairs)
        own = np.arange(nt, n, dtype=np.int64)[:, None]
        if ((pairs < MOVE_BASE) | (pairs >= own)).any():
            raise ValueError("rule member is an event or not an earlier symbol")

        tdx, tdy = spiral.decode_table(self.max_move_code)
        span, dx, dy = (np.zeros(n, dtype=np.int64) for _ in range(3))
        mbr = np.zeros((n, 4), dtype=np.int64)
        sym_pairs = np.zeros((n, 2), dtype=np.int64)
        span[MOVE_BASE:nt] = 1
        dx[MOVE_BASE:nt] = tdx
        dy[MOVE_BASE:nt] = tdy
        mbr[MOVE_BASE:nt] = np.column_stack(
            [np.minimum(tdx, 0), np.minimum(tdy, 0), np.maximum(tdx, 0), np.maximum(tdy, 0)]
        )
        sym_pairs[nt:] = pairs

        # a rule's level is one more than its members' (moves are level 0);
        # every rule of a level references lower levels only
        lev = [0] * nt
        for a, b in pairs.tolist():
            la, lb = lev[a], lev[b]
            lev.append(la + 1 if la > lb else lb + 1)
        level = np.array(lev[nt:], dtype=np.int64)
        self._depth = int(level.max()) if len(level) else 0
        by_level = np.argsort(level, kind="stable")
        for rows in np.split(by_level, np.cumsum(np.bincount(level))[1:-1]):
            s = rows + nt
            a, b = pairs[rows].T
            span[s] = span[a] + span[b]
            dx[s] = dx[a] + dx[b]
            dy[s] = dy[a] + dy[b]
            lo = mbr[b] + np.column_stack([dx[a], dy[a], dx[a], dy[a]])
            mbr[s, :2] = np.minimum(mbr[a, :2], lo[:, :2])
            mbr[s, 2:] = np.maximum(mbr[a, 2:], lo[:, 2:])
        # a rule spans more than either member unless a sum wrapped, and
        # every coordinate is at most span * the largest move radius
        radius = int(max(np.abs(tdx).max(), np.abs(tdy).max()))
        if (span[nt:] <= span[pairs].max(axis=1)).any() or int(span.max()) * radius >= 2**63:
            raise ValueError("rule spans or coordinates overflow int64")

        tables = (span, dx, dy, mbr, sym_pairs)
        self.span, self.dx, self.dy, self.mbr, self.pairs = (t[nt:] for t in tables)
        self.sym_span, self.sym_dx, self.sym_dy, self.sym_mbr, self.sym_pairs = map(
            memoryview, tables
        )

    @classmethod
    def build(cls, rule_pairs, max_move_code):
        """The dictionary of ``rule_pairs`` over moves 0..max_move_code."""
        return cls(max_move_code, rule_pairs)

    @property
    def n_rules(self):
        return len(self.pairs)

    def _check(self, sym):
        if sym < MOVE_BASE:
            raise ValueError("event symbol has no movement payload: %d" % sym)
        if sym >= len(self.sym_span):
            raise KeyError("unknown rule id: %d" % sym)

    def span_of(self, sym):
        self._check(sym)
        return self.sym_span[sym]

    def disp_of(self, sym):
        self._check(sym)
        return self.sym_dx[sym], self.sym_dy[sym]

    def mbr_of(self, sym):
        """Relative bounding box of origin + all intermediate positions."""
        self._check(sym)
        return tuple(self.sym_mbr[sym, k] for k in range(4))

    def box(self, sym, x, y):
        """Absolute bounding box of ``sym``'s path when applied from (x, y)."""
        m = self.sym_mbr
        return x + m[sym, 0], y + m[sym, 1], x + m[sym, 2], y + m[sym, 3]

    def pair_of(self, sym):
        return self.sym_pairs[sym, 0], self.sym_pairs[sym, 1]

    def expand(self, sym):
        """Left-to-right terminal expansion (move symbols, not codes)."""
        self._check(sym)
        out = []
        stack = [sym]
        while stack:
            s = stack.pop()
            if s < self.nt_base:
                out.append(s)
            else:
                a, b = self.pair_of(s)
                stack.append(b)
                stack.append(a)
        return out

    def depth(self):
        """Longest rule chain; 0 when there are no rules."""
        return self._depth
