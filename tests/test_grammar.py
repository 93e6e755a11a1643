import pytest
from hypothesis import given
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
