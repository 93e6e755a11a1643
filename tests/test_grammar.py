import random

import numpy as np
import pytest
from conftest import deadline
from hypothesis import given, settings
from hypothesis import strategies as st

from trajindex import spiral
from trajindex.grammar import (
    EV_AA,
    EV_D,
    MOVE_BASE,
    RuleDictionary,
    repair_compress,
)

BASE = 20  # terminal alphabet size used by most tests here

# The reference below is the earlier whole-array Re-Pair, kept verbatim: it
# rescans and re-sorts every symbol once per rule, so it costs O(rules x n),
# and ``repair_compress`` must give exactly its rules and streams.
_HOLE = -1


def reference_repair(streams, nt_base):
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


def compress_one(stream, nt_base=BASE):
    out, rules = repair_compress([list(stream)], nt_base)
    return list(out[0]), rules


class TestRepair:
    def test_no_repeats_unchanged(self):
        assert compress_one([1, 2, 3], nt_base=BASE) == ([1, 2, 3], [])

    def test_single_repeated_pair(self):
        syms, rules = compress_one([5, 7, 5, 7, 3])
        assert rules == [(5, 7)]
        assert syms == [BASE, BASE, 3]

    def test_equal_symbol_run_counts_non_overlapping(self):
        # three in a row is just one usable pair
        assert compress_one([9, 9, 9]) == ([9, 9, 9], [])
        syms, rules = compress_one([9, 9, 9, 9])
        assert rules == [(9, 9)]
        assert syms == [BASE, BASE]

    def test_run_of_equal_symbols(self):
        syms, rules = compress_one([5, 5, 5, 5])
        assert rules == [(5, 5)]
        assert syms == [BASE, BASE]

    def test_recursion_across_streams(self):
        out, rules = repair_compress([[6, 9, 6, 9], [6, 9, 6, 9]], BASE)
        assert rules == [(6, 9), (BASE, BASE)]
        assert [list(s) for s in out] == [[BASE + 1], [BASE + 1]]

    def test_pairs_never_cross_streams(self):
        out, rules = repair_compress([[4, 5], [4, 5], [5, 4]], BASE)
        assert rules == [(4, 5)]
        assert [list(s) for s in out] == [[BASE], [BASE], [5, 4]]

    def test_event_symbols_never_enter_rules(self):
        stream = [EV_AA, 7, 7, EV_D, EV_AA, 7, 7, EV_D]
        out, rules = repair_compress([stream], BASE)
        for a, b in rules:
            assert a >= MOVE_BASE and b >= MOVE_BASE
        # events survive in place
        flat = list(out[0])
        assert flat[0] == EV_AA and flat[-1] == EV_D

    def test_tie_break_smallest_pair(self):
        # (4,5) and (6,7) both occur twice; the smaller pair wins first
        syms, rules = compress_one([6, 7, 4, 5, 6, 7, 4, 5])
        assert rules[0] == (4, 5)

    def test_symbol_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError):
            repair_compress([[BASE]], BASE)
        with pytest.raises(ValueError):
            repair_compress([[-1]], BASE)
        with pytest.raises(ValueError):
            repair_compress([[5, -1, 6], [5, 6]], BASE)

    def test_empty_streams(self):
        out, rules = repair_compress([[], []], BASE)
        assert [list(s) for s in out] == [[], []]
        assert rules == []


def expand_all(syms, rules, nt_base):
    out = []
    for s in syms:
        stack = [s]
        while stack:
            v = stack.pop()
            if v < nt_base:
                out.append(v)
            else:
                a, b = rules[v - nt_base]
                stack.append(b)
                stack.append(a)
    return out


@given(
    st.lists(
        st.lists(st.integers(0, 11), min_size=0, max_size=60),
        min_size=1,
        max_size=4,
    )
)
def test_repair_round_trip(streams):
    out, rules = repair_compress([list(s) for s in streams], 12)
    for original, compressed in zip(streams, out):
        assert expand_all(compressed, rules, 12) == list(original)


def assert_matches_reference(streams, nt_base):
    out, rules = repair_compress(streams, nt_base)
    want_out, want_rules = reference_repair(streams, nt_base)
    assert rules == want_rules
    assert [s.tolist() for s in out] == [s.tolist() for s in want_out]


@st.composite
def stream_sets(draw):
    """(streams, nt_base): 1-5 streams over 1-5 move symbols with event
    markers mixed in, drawn as runs of one symbol (1-8 long in run-heavy
    draws, all of length 1 in the others)."""
    nt_base = MOVE_BASE + draw(st.integers(1, 5))
    symbol = st.sampled_from(list(range(MOVE_BASE)) + 3 * list(range(MOVE_BASE, nt_base)))
    run = st.tuples(symbol, st.integers(1, draw(st.sampled_from([1, 8]))))
    streams = draw(st.lists(st.lists(run, max_size=30), min_size=1, max_size=5))
    return [[sym for sym, n in runs for _ in range(n)] for runs in streams], nt_base


@settings(max_examples=300)
@given(stream_sets())
def test_repair_matches_reference(case):
    assert_matches_reference(*case)


A, B = MOVE_BASE, MOVE_BASE + 1


@pytest.mark.parametrize(
    "streams",
    [
        # (a, b) ties (b, b) and wins, so every b-run loses its head and
        # the rest of the run re-parities
        [[A, B, B, B] * 6],
        [[A, B, B, B, B] * 5, [B, B, A, B, B], [A, B, B, B]],
        # (a, b) leaves one run of 20 new symbols
        [[A, B] * 20],
        # odd-length runs keep their last symbol
        [[A] * 7 + [B] + [A] * 7, [A] * 5, [A] * 9 + [B, B, B]],
        [[A, B] * 9 + [A], [EV_AA, B, B, B, EV_D, A, B, B, A, B]],
    ],
)
def test_repair_matches_reference_on_runs(streams):
    assert_matches_reference(streams, MOVE_BASE + 2)


def test_repair_scales_near_linearly():
    # about 1e5 walk moves over 60 streams; the reference takes about 12 s
    rng = random.Random(7)
    streams = [[MOVE_BASE + rng.randrange(25) for _ in range(1667)] for _ in range(60)]
    with deadline(5.0):
        out, rules = repair_compress(streams, MOVE_BASE + 25)
    assert len(rules) > 1000
    for original, compressed in zip(streams, out):
        assert expand_all(compressed, rules, MOVE_BASE + 25) == original


def test_repair_long_runs_stay_linear():
    # a run of 5e4 equal symbols, then (a, b) forms a run of 2.5e4 new
    # symbols, whose pairs are counted once per run, not once per symbol
    stream = [A] * 50000 + [A, B] * 25000
    with deadline(5.0):
        assert_matches_reference([stream], MOVE_BASE + 2)


@pytest.fixture(scope="module")
def rules():
    # codes 2,9 / 4,5 as move symbols, then a rule over the first rule
    first_rule = MOVE_BASE + 9 + 1  # nt_base for max_move_code=9
    pairs = [
        (2 + MOVE_BASE, 9 + MOVE_BASE),
        (4 + MOVE_BASE, 5 + MOVE_BASE),
        (first_rule, first_rule),
    ]
    return RuleDictionary.build(pairs, max_move_code=9)


class TestEnrichment:

    def test_pair_of_codes_2_9(self, rules):
        w = rules.nt_base
        assert rules.span_of(w) == 2
        assert rules.disp_of(w) == (3, 0)
        assert rules.mbr_of(w) == (0, -1, 3, 0)

    def test_pair_of_codes_4_5(self, rules):
        z = rules.nt_base + 1
        assert rules.span_of(z) == 2
        assert rules.disp_of(z) == (-2, -1)
        assert rules.mbr_of(z) == (-2, -1, 0, 0)

    def test_nested_rule(self, rules):
        zz = rules.nt_base + 2
        assert rules.span_of(zz) == 4
        assert rules.disp_of(zz) == (6, 0)
        assert rules.mbr_of(zz) == (0, -1, 6, 0)
        assert rules.depth() == 2

    def test_terminal_metadata(self, rules):
        sym = 9 + MOVE_BASE
        assert rules.span_of(sym) == 1
        assert rules.disp_of(sym) == (2, 1)
        assert rules.mbr_of(sym) == (0, 0, 2, 1)

    def test_event_symbol_rejected(self, rules):
        with pytest.raises(ValueError):
            rules.span_of(EV_AA)
        with pytest.raises(ValueError):
            RuleDictionary.build([(EV_D, MOVE_BASE)], max_move_code=9)

    def test_unknown_rule_rejected(self, rules):
        with pytest.raises(KeyError):
            rules.span_of(rules.nt_base + 99)

    def test_expand_is_leftmost_order(self, rules):
        w = rules.nt_base
        assert rules.expand(w) == [2 + MOVE_BASE, 9 + MOVE_BASE]
        assert rules.expand(rules.nt_base + 2) == [
            2 + MOVE_BASE,
            9 + MOVE_BASE,
            2 + MOVE_BASE,
            9 + MOVE_BASE,
        ]


def brute_metadata(codes):
    """Span/displacement/box of a move-code sequence by simulation."""
    x = y = 0
    minx = miny = maxx = maxy = 0
    for c in codes:
        dx, dy = spiral.decode(c)
        x += dx
        y += dy
        minx, maxx = min(minx, x), max(maxx, x)
        miny, maxy = min(miny, y), max(maxy, y)
    return len(codes), (x, y), (minx, miny, maxx, maxy)


@given(st.data())
def test_enrichment_matches_brute_force(data):
    max_code = 24
    n_streams = data.draw(st.integers(1, 3))
    streams = [
        [
            c + MOVE_BASE
            for c in data.draw(
                st.lists(st.integers(0, max_code), min_size=0, max_size=50)
            )
        ]
        for _ in range(n_streams)
    ]
    nt_base = MOVE_BASE + max_code + 1
    _out, pairs = repair_compress(streams, nt_base)
    rules = RuleDictionary.build(pairs, max_code)
    depth = {}
    for i, (a, b) in enumerate(pairs):
        depth[nt_base + i] = 1 + max(depth.get(a, 0), depth.get(b, 0))
    assert rules.depth() == max(depth.values(), default=0)
    for i in range(len(pairs)):
        sym = nt_base + i
        codes = [s - MOVE_BASE for s in rules.expand(sym)]
        span, disp, box = brute_metadata(codes)
        assert rules.span_of(sym) == span
        assert rules.disp_of(sym) == disp
        assert rules.mbr_of(sym) == box
