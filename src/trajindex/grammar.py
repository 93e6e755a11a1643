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
non-overlapping occurrences (a run of L equal symbols counts floor(L/2),
taken at even offsets from the run's start); ties pick the smallest
(a, b); replacement scans left to right.  The loop stops when no pair
occurs twice.  Everything is deterministic, which the serialization
round-trip tests rely on.

The loop is incremental, after Larsson & Moffat ("Off-line
dictionary-based compression", Proc. IEEE 2000).  The streams form one
doubly linked symbol list.  A dict maps every pair that occurs at least
twice to the set of its countable left positions, and a max-heap of
(-count, a, b) with lazy deletion picks the next pair.  Replacing one
occurrence touches only its neighbours: it breaks the pairs on either side
and forms the two pairs with the new symbol; a run that loses its head
re-parities, and each run of the new symbol is counted once.  Old pairs
only lose occurrences, so each rule pushes just its new pairs.  Every
replacement costs O(1) set and list steps plus its share of the sort of
the rule's sites and of the heap, so compressing n symbols takes
O(n log n) time, against O(rules x n) for a rescan of the whole array per
rule.

After compression every rule s -> (a, b) is annotated bottom-up, one
grammar level at a time, with the time span it covers, its net
displacement, and the bounding box of the origin plus every intermediate
position of its expansion ("relative MBR", origin included) — the payloads
that let traversals jump over whole rules.  They follow from the pairs, so
an index file stores only the pairs and loading derives the rest.
"""

import collections
import heapq

import numpy as np

from . import spiral
from .bits import narrow

EV_D = 0
EV_AA = 1
EV_RNM = 2
EV_RM = 3
MOVE_BASE = 4

_SEP = -1  # stands between streams in the work array, so no pair spans two
_HOLE = -2  # marks a deleted right half


def repair_compress(streams, nt_base):
    """Compress integer streams jointly; returns (streams, rule pair list).

    ``nt_base`` is the first nonterminal id (= alphabet size).  The input
    streams may be empty; symbols must be < nt_base.
    """
    lengths = [len(s) for s in streams]
    if sum(lengths) == 0:
        return [np.zeros(0, dtype=np.int64) for _ in streams], []
    arr = np.concatenate([np.asarray(s, dtype=np.int64) for s in streams])
    if arr.min() < 0 or arr.max() >= nt_base:
        raise ValueError("stream symbol outside the terminal alphabet")
    arr = np.insert(arr, np.cumsum([0] + lengths), _SEP)  # around every stream
    n = len(arr)
    width = nt_base + n  # above every symbol the loop can create
    occ = _initial_pairs(arr, width)
    heap = [(-len(at), key) for key, at in occ.items()]
    heapq.heapify(heap)
    s = arr.tolist()
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    rules = []
    while heap:
        negc, key = heapq.heappop(heap)
        at = occ.get(key, ())
        if len(at) != -negc:
            # stale: the count fell since the push; a rise pushes anew
            if 2 <= len(at) < -negc:
                heapq.heappush(heap, (-len(at), key))
            continue
        del occ[key]
        a, b = divmod(key, width)
        new = nt_base + len(rules)
        rules.append((a, b))
        for k, sites in _replace(s, nxt, prv, occ, width, a, b, new, at).items():
            # later rules never add sites to these pairs, so one seen
            # fewer than twice can be dropped for good
            if len(sites) >= 2:
                occ[k] = sites
                heapq.heappush(heap, (-len(sites), k))
    out = np.array(s, dtype=np.int64)
    out = out[out != _HOLE]
    cuts = np.flatnonzero(out == _SEP)
    return [out[lo + 1 : hi] for lo, hi in zip(cuts[:-1], cuts[1:])], rules


def _initial_pairs(arr, width):
    """{a * width + b: set of countable left positions} of the pairs of
    ``arr`` that occur at least twice."""
    left, right = arr[:-1], arr[1:]
    start = np.empty(len(arr), dtype=bool)
    start[0] = True
    start[1:] = right != left
    # equal-symbol runs: only even in-run offsets count (non-overlap)
    run_pos = np.arange(len(arr)) - np.flatnonzero(start)[np.cumsum(start) - 1]
    valid = (left >= MOVE_BASE) & (right >= MOVE_BASE)
    countable = valid & ((left != right) | (run_pos[:-1] % 2 == 0))
    pos = np.flatnonzero(countable)
    if not len(pos):
        return {}
    pos = pos[np.lexsort((right[pos], left[pos]))]
    a, b = left[pos], right[pos]
    lo = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    hi = np.r_[lo[1:], len(pos)]
    many = hi - lo >= 2
    pos = pos.tolist()
    return {
        x * width + y: set(pos[i:j])
        for x, y, i, j in zip(*(v[many].tolist() for v in (a[lo], b[lo], lo, hi)))
    }


def _replace(s, nxt, prv, occ, width, a, b, new, at):
    """Replace pair (a, b) at its sites ``at`` by ``new`` in the linked
    symbol list, discarding the pairs this breaks from ``occ``; returns
    the pairs it forms, all of which contain ``new``, as {key: sites}."""
    fresh = collections.defaultdict(set)
    sites = sorted(at)
    for i in sites:
        j = nxt[i]
        p = prv[i]
        q = nxt[j]
        sp = s[p]
        sq = s[q]
        s[i] = new
        s[j] = _HOLE
        nxt[i] = q
        prv[q] = i
        if sp >= MOVE_BASE and sp != new:  # p is no earlier site
            old = occ.get(sp * width + a)
            if old is not None:
                old.discard(p)
            fresh[sp * width + new].add(p)
        if sq >= MOVE_BASE:
            old = occ.get(b * width + sq)
            if old is not None:
                old.discard(j)
                if sq == b != a:
                    # j headed a b-run: the rest of the run re-parities
                    t, even = q, True
                    while s[nxt[t]] == b:
                        if even:
                            old.add(t)
                        else:
                            old.discard(t)
                        t = nxt[t]
                        even = not even
            if q not in at:  # q is no later site
                fresh[new * width + sq].add(i)
    # a run of the new symbol counts its even offsets; walk each run once
    # from its head, as one walk per site would be quadratic in its length
    for i in sites:
        if s[prv[i]] != new and s[nxt[i]] == new:
            t, even = i, True
            while s[nxt[t]] == new:
                if even:
                    fresh[new * width + new].add(t)
                t = nxt[t]
                even = not even
    return fresh


class RuleDictionary:
    """Enriched Re-Pair rules.

    Each field is one table indexed by symbol id, covering event markers
    (all zero), terminal moves and rules alike: span, net displacement,
    relative MBR (x1, y1, x2, y2 around the origin) and the rule's pair
    (zero below ``nt_base``).  Each is held in the narrowest integer dtype
    for its range, so a numpy gather from one must widen before any
    arithmetic.  Traversals read them through the memoryviews ``sym_span``,
    ``sym_dx``, ``sym_dy``, ``sym_mbr`` and ``sym_pairs``, which give Python
    ints; ``span``, ``dx``, ``dy``, ``mbr`` and ``pairs`` are numpy views of
    the rule rows.  Every table follows from the pairs alone.
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

        tables = tuple(map(narrow, (span, dx, dy, mbr, sym_pairs)))
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
