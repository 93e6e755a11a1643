from itertools import groupby

import pytest

from conftest import DATASETS, PERIODS
from trajindex import TrajectoryIndex
from trajindex.grammar import EV_AA, EV_D, MOVE_BASE, RuleDictionary
from trajindex.logs import move_back, move_jump, move_steps


def log_symbols(idx, h, oid):
    portion = idx.logs.portions[h]
    i = portion.find(oid)
    return [int(s) for s in idx.logs.syms[portion.sym_off[i]:portion.sym_off[i + 1]]]


@pytest.fixture(scope="module")
def z_rules():
    # one rule over move codes 4 (west-ish) and 5: displacement (-2, -1)
    return RuleDictionary.build(
        [(4 + MOVE_BASE, 5 + MOVE_BASE)], max_move_code=9
    )


class TestMovePrimitives:
    def test_jump_whole_symbol(self, z_rules):
        z = z_rules.nt_base
        assert move_jump(z_rules, (9, 5), 1, 3, z) == (3, (7, 4))

    def test_jump_partial_descends(self, z_rules):
        z = z_rules.nt_base
        assert move_jump(z_rules, (9, 5), 1, 2, z) == (2, (8, 4))

    def test_jump_terminal(self, z_rules):
        assert move_jump(z_rules, (9, 5), 1, 9, 4 + MOVE_BASE) == (2, (8, 4))

    def test_back_whole_symbol(self, z_rules):
        z = z_rules.nt_base
        assert move_back(z_rules, (7, 4), 1, 3, z) == (1, (9, 5))

    def test_back_partial(self, z_rules):
        z = z_rules.nt_base
        assert move_back(z_rules, (7, 4), 2, 3, z) == (2, (8, 4))

    def test_steps_expand_in_order(self, z_rules):
        z = z_rules.nt_base
        assert move_steps(z_rules, (9, 5), 1, 3, z) == [(2, (8, 4)), (3, (7, 4))]
        assert move_steps(z_rules, (9, 5), 1, 2, z) == [(2, (8, 4))]

    def test_jump_and_back_are_mirrors(self, z_rules):
        z = z_rules.nt_base
        t1, p1 = move_jump(z_rules, (9, 5), 1, 3, z)
        assert move_back(z_rules, p1, 1, t1, z) == (1, (9, 5))


class TestLogLayout:
    def test_appearing_log_shape(self, appearance_index):
        # portion 1 of the appearing object: AA, one covering rule, D
        idx = appearance_index
        o5 = int(idx._oid(5))
        portion = idx.logs.portions[1]
        i = portion.find(o5)
        assert i >= 0
        s0, s1 = portion.sym_off[i], portion.sym_off[i + 1]
        syms = [int(s) for s in idx.logs.syms[s0:s1]]
        assert syms[0] == EV_AA
        assert syms[-1] == EV_D
        assert len(syms) == 3
        assert syms[1] >= idx.rules.nt_base  # the shared pair got a rule
        assert idx.rules.expand(syms[1]) == [7 + MOVE_BASE, 8 + MOVE_BASE]

    def test_anchors(self, appearance_index):
        idx = appearance_index
        o5 = int(idx._oid(5))
        assert idx.logs.first_anchor(1, o5) == (11, (7, 2))
        assert idx.logs.last_anchor(1, o5) == (13, (8, 4))
        assert idx.logs.first_anchor(0, o5) is None

    def test_derived_flags(self, appearance_index):
        idx = appearance_index
        portion = idx.logs.portions[1]
        i5 = portion.find(int(idx._oid(5)))
        i9 = portion.find(int(idx._oid(9)))
        assert bool(portion.starts_aa[i5]) and bool(portion.ends_d[i5])
        assert not portion.starts_aa[i9] and not portion.ends_d[i9]
        assert portion.last_covered[i5] == 13
        assert portion.last_covered[i9] == 16

    def test_forward_cursor_window(self, appearance_index):
        idx = appearance_index
        o5 = int(idx._oid(5))
        _aa, rule, _d = log_symbols(idx, 1, o5)
        # from the AA anchor: the anchor is the start state, the covering
        # rule comes with the state it reaches whole, the closing D is skipped
        assert list(idx.logs.elements(o5, 11, (7, 2), 16)) == [(rule, 13, (8, 4))]
        # the first element reaching the window end is yielded whole (the
        # consumer clips it) and ends the walk
        assert list(idx.logs.elements(o5, 11, (7, 2), 12)) == [(rule, 13, (8, 4))]
        assert list(idx.logs.elements(o5, 11, (7, 2), 11)) == []

    def test_backward_cursor_reverses(self, appearance_index):
        idx = appearance_index
        o5 = int(idx._oid(5))
        _aa, rule, _d = log_symbols(idx, 1, o5)
        # from the D anchor: D restates it, the rule yields the state before
        # it, the opening AA sets its own payload
        back = list(idx.logs.elements_backward(1, o5, 13, (8, 4), 8))
        assert back == [(None, 13, (8, 4)), (rule, 11, (7, 2)), (None, 11, (7, 2))]
        # the walk stops after the first element reaching the floor
        assert list(idx.logs.elements_backward(1, o5, 13, (8, 4), 12)) == back[:2]

    def test_trajectory_reconstruction(self, appearance_index):
        assert appearance_index.trajectory(5, 11, 15) == [
            (11, (7, 2)),
            (12, (7, 3)),
            (13, (8, 4)),
        ]

    def test_stationary_log_expands_to_code_zero(self, walkthrough_index):
        # object 4 never moves: its logs are stay-put moves, no AA/D anchors
        idx = walkthrough_index
        o4 = int(idx._oid(4))
        for h in range(idx.logs.n_portions):
            portion = idx.logs.portions[h]
            i = portion.find(o4)
            s0, s1 = portion.sym_off[i], portion.sym_off[i + 1]
            flat = []
            for sym in idx.logs.syms[s0:s1]:
                flat.extend(idx.rules.expand(int(sym)))
            assert flat == [MOVE_BASE] * 8
            assert idx.logs.first_anchor(h, o4) is None
            assert idx.logs.last_anchor(h, o4) is None
            assert portion.last_covered[i] == idx.logs.portion_end(h)

    def test_snapshot_only_presence_leaves_d_log(self):
        # object 1's last sample is exactly the snapshot instant 8, so its
        # portion-1 log is a lone D event re-stating that anchor
        idx = TrajectoryIndex.build(
            {1: [(0, [(3, 3)] * 9)], 2: [(0, [(1, 1)] * 17)]},
            period=8,
            k=2,
            side=16,
        )
        o1 = int(idx._oid(1))
        portion = idx.logs.portions[1]
        i = portion.find(o1)
        s0, s1 = portion.sym_off[i], portion.sym_off[i + 1]
        assert [int(s) for s in idx.logs.syms[s0:s1]] == [EV_D]
        assert idx.logs.last_anchor(1, o1) == (8, (3, 3))
        assert portion.last_covered[i] == 8
        # the walker needs h: (8 - 1) // period would name portion 0
        assert list(idx.logs.elements_backward(1, o1, 8, (3, 3), 8)) == [(None, 8, (3, 3))]

    def test_gap_in_portion_uses_relocation(self, walkthrough_index):
        # object 5 pauses inside portion 0 (t0-t3 then reappears at t9 in
        # portion 1): portion 0 log must end with D, portion 1 start with AA
        idx = walkthrough_index
        o5 = int(idx._oid(5))
        p0 = idx.logs.portions[0]
        i = p0.find(o5)
        s0, s1 = p0.sym_off[i], p0.sym_off[i + 1]
        assert int(idx.logs.syms[s1 - 1]) == EV_D
        assert idx.logs.last_anchor(0, o5) == (3, (7, 1))
        assert idx.logs.first_anchor(1, o5) == (9, (7, 2))


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_walkers_match_oracle(name, period, indexes, oracles):
    """Every forward state equals the oracle position at that instant, and
    the backward walk from the log's end (next snapshot or D anchor) yields
    the same states in reverse; a whole-timeline walk crosses portions."""
    idx, oracle = indexes[name, period], oracles[name]
    logs = idx.logs
    for h, portion in enumerate(logs.portions):
        for i, oid in enumerate(int(o) for o in portion.ids):
            orig = int(idx.ids[oid])
            if portion.starts_aa[i]:
                start = logs.first_anchor(h, oid)
            else:
                start = (h * period, idx.snapshots[h].find_object(oid))
            fwd = [start]
            for sym, t, p in logs.elements(oid, *start, logs.portion_end(h)):
                assert (sym is None) or sym >= MOVE_BASE
                fwd.append((t, p))
            if portion.ends_d[i]:
                end = logs.last_anchor(h, oid)
            elif h + 1 < len(idx.snapshots):
                end = (logs.portion_end(h), idx.snapshots[h + 1].find_object(oid))
            else:  # a last portion cut short by t_max has no next snapshot
                end = fwd[-1]
            assert fwd[-1] == end
            for t, p in fwd:
                assert oracle.position_of(orig, t) == p, (h, orig, t)
            back = [end] + [
                (t, p) for _sym, t, p in logs.elements_backward(h, oid, *end, h * period)
            ]
            # D restates the end state and AA the start state: drop repeats
            assert [st for st, _ in groupby(back)] == fwd[::-1], (h, orig)
    for oid in range(len(idx.ids)):
        orig = int(idx.ids[oid])
        h = 0
        while not idx.snapshots[h].is_present(oid) and logs.first_anchor(h, oid) is None:
            h += 1
        if idx.snapshots[h].is_present(oid):
            t_c, p_c = h * period, idx.snapshots[h].find_object(oid)
        else:
            t_c, p_c = logs.first_anchor(h, oid)
        for _sym, t_c, p_c in logs.elements(oid, t_c, p_c, idx.params.t_max):
            assert oracle.position_of(orig, t_c) == p_c, (orig, t_c)
        assert t_c == max(oracle.timelines[orig]), orig  # walked to the end
