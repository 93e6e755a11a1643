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

After compression every rule s -> (a, b) is annotated bottom-up with the
time span it covers, its net displacement, and the bounding box of the
origin plus every intermediate position of its expansion ("relative MBR",
origin included) — the payloads that let traversals jump over whole rules.
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
    views of the rule rows.
    """

    def __init__(self, max_move_code, pairs, span, dx, dy, mbr):
        """Takes rule-indexed arrays; members must be moves or earlier rules."""
        self.max_move_code = int(max_move_code)
        nt = self.nt_base = MOVE_BASE + self.max_move_code + 1
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = nt + len(pairs)
        own = np.arange(nt, n, dtype=np.int64)[:, None]
        if ((pairs < MOVE_BASE) | (pairs >= own)).any():
            raise ValueError("rule member is an event or not an earlier symbol")

        def table(rule_rows, move_rows):
            rule_rows = np.asarray(rule_rows, dtype=np.int64)
            t = np.zeros((n,) + rule_rows.shape[1:], dtype=np.int64)
            t[MOVE_BASE:nt] = move_rows
            t[nt:] = rule_rows
            return t

        tdx, tdy = spiral.decode_table(self.max_move_code)
        move_mbr = np.column_stack(
            [np.minimum(tdx, 0), np.minimum(tdy, 0), np.maximum(tdx, 0), np.maximum(tdy, 0)]
        )
        tables = (
            table(span, 1),
            table(dx, tdx),
            table(dy, tdy),
            table(mbr, move_mbr),
            table(pairs, 0),
        )
        self.span, self.dx, self.dy, self.mbr, self.pairs = (t[nt:] for t in tables)
        self.sym_span, self.sym_dx, self.sym_dy, self.sym_mbr, self.sym_pairs = map(
            memoryview, tables
        )

    @classmethod
    def build(cls, rule_pairs, max_move_code):
        """Enrich rules bottom-up (every rule references smaller ids only)."""
        n = len(rule_pairs)
        zero = np.zeros(n, dtype=np.int64)
        rules = cls(max_move_code, rule_pairs, zero, zero, zero, np.zeros((n, 4), dtype=np.int64))
        span, dx, dy = rules.sym_span, rules.sym_dx, rules.sym_dy
        mbr, pairs = rules.sym_mbr, rules.sym_pairs
        for s in range(rules.nt_base, rules.nt_base + n):
            a, b = pairs[s, 0], pairs[s, 1]
            span[s] = span[a] + span[b]
            dx[s] = dx[a] + dx[b]
            dy[s] = dy[a] + dy[b]
            mbr[s, 0] = min(mbr[a, 0], mbr[b, 0] + dx[a])
            mbr[s, 1] = min(mbr[a, 1], mbr[b, 1] + dy[a])
            mbr[s, 2] = max(mbr[a, 2], mbr[b, 2] + dx[a])
            mbr[s, 3] = max(mbr[a, 3], mbr[b, 3] + dy[a])
        return rules

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
        if not len(self.pairs):
            return 0
        d = np.zeros(len(self.pairs), dtype=np.int64)
        for i in range(len(self.pairs)):
            da = d[self.pairs[i, 0] - self.nt_base] if self.pairs[i, 0] >= self.nt_base else 0
            db = d[self.pairs[i, 1] - self.nt_base] if self.pairs[i, 1] >= self.nt_base else 0
            d[i] = 1 + max(da, db)
        return int(d.max())


def zigzag(values):
    """Map signed to unsigned: 0,-1,1,-2,2.. -> 0,1,2,3,4.."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values >= 0, 2 * values, -2 * values - 1).astype(np.uint64)


def unzigzag(values):
    values = np.asarray(values, dtype=np.uint64).astype(np.int64)
    return np.where(values % 2 == 0, values // 2, -(values + 1) // 2)
