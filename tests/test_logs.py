import random
from itertools import groupby

import numpy as np
import pytest

import trajindex.logs
from conftest import DATASETS, PERIODS
from trajindex import Oracle, TrajectoryIndex
from trajindex.bits import narrow
from trajindex.geometry import clip_region, contains
from trajindex.grammar import EV_AA, EV_D, EV_RM, MOVE_BASE, RuleDictionary
from trajindex.logs import move_back, move_jump, move_steps
from trajindex.spiral import decode


def log_symbols(idx, h, oid):
    logs = idx.logs
    g = logs.find(h, oid)
    return [int(s) for s in logs.syms[logs.table.sym_off[g]:logs.table.sym_off[g + 1]]]


def log_starts(idx):
    """(h, g, oid, start state) of every log: its AA anchor, else its
    object's position at snapshot h."""
    logs = idx.logs
    for h in range(logs.n_portions):
        for g in range(logs.bounds[h], logs.bounds[h + 1]):
            oid = int(logs.table.ids[g])
            if logs.table.starts_aa[g]:
                yield h, g, oid, logs.first_anchor(g)
            else:
                yield h, g, oid, (h * idx.params.period, idx.snapshots[h].find_object(oid))


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
        assert idx.logs.find(1, o5) >= 0
        syms = log_symbols(idx, 1, o5)
        assert syms[0] == EV_AA
        assert syms[-1] == EV_D
        assert len(syms) == 3
        assert syms[1] >= idx.rules.nt_base  # the shared pair got a rule
        assert idx.rules.expand(syms[1]) == [7 + MOVE_BASE, 8 + MOVE_BASE]

    def test_anchors(self, appearance_index):
        idx = appearance_index
        logs, o5 = idx.logs, int(idx._oid(5))
        assert logs.first_anchor(logs.find(1, o5)) == (11, (7, 2))
        assert logs.last_anchor(logs.find(1, o5)) == (13, (8, 4))
        assert logs.first_anchor(logs.find(0, o5)) is None
        assert logs.first_anchor(-1) is None and logs.last_anchor(-1) is None

    def test_derived_flags(self, appearance_index):
        idx = appearance_index
        logs, t = idx.logs, idx.logs.table
        g5 = logs.find(1, int(idx._oid(5)))
        g9 = logs.find(1, int(idx._oid(9)))
        assert bool(t.starts_aa[g5]) and bool(t.ends_d[g5])
        assert not t.starts_aa[g9] and not t.ends_d[g9]
        assert t.end[g5] == 13 == logs.last_covered(g5)
        assert t.end[g9] == 16 == logs.last_covered(g9)
        assert logs.last_covered(-1) == -1

    def test_forward_cursor_window(self, appearance_index):
        idx = appearance_index
        o5 = int(idx._oid(5))
        g5 = idx.logs.find(1, o5)
        _aa, rule, _d = log_symbols(idx, 1, o5)
        # from the AA anchor: the anchor is the start state, the covering
        # rule comes with the state it reaches whole, the closing D ends it
        assert list(idx.logs.elements(g5, 11, (7, 2), 16)) == [(rule, 13, (8, 4))]
        # the first element reaching the window end is yielded whole (the
        # consumer clips it) and ends the walk
        assert list(idx.logs.elements(g5, 11, (7, 2), 12)) == [(rule, 13, (8, 4))]
        assert list(idx.logs.elements(g5, 11, (7, 2), 11)) == []

    def test_backward_cursor_reverses(self, appearance_index):
        idx = appearance_index
        o5 = int(idx._oid(5))
        g5 = idx.logs.find(1, o5)
        _aa, rule, _d = log_symbols(idx, 1, o5)
        # from the D anchor: D restates it, the rule yields the state before
        # it, the opening AA sets its own payload
        back = list(idx.logs.elements_backward(1, g5, 13, (8, 4), 8))
        assert back == [(None, 13, (8, 4)), (rule, 11, (7, 2)), (None, 11, (7, 2))]
        # the walk stops after the first element reaching the floor
        assert list(idx.logs.elements_backward(1, g5, 13, (8, 4), 12)) == back[:2]

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
            flat = []
            for sym in log_symbols(idx, h, o4):
                flat.extend(idx.rules.expand(sym))
            assert flat == [MOVE_BASE] * 8
            g4 = idx.logs.find(h, o4)
            assert idx.logs.first_anchor(g4) is None
            assert idx.logs.last_anchor(g4) is None
            assert idx.logs.table.end[g4] == idx.logs.portion_end(h)

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
        assert log_symbols(idx, 1, o1) == [EV_D]
        g1 = idx.logs.find(1, o1)
        assert idx.logs.last_anchor(g1) == (8, (3, 3))
        assert idx.logs.table.end[g1] == 8
        # the walker needs h: (8 - 1) // period would name portion 0
        assert list(idx.logs.elements_backward(1, g1, 8, (3, 3), 8)) == [(None, 8, (3, 3))]

    def test_gap_in_portion_uses_relocation(self, walkthrough_index):
        # object 5 pauses inside portion 0 (t0-t3 then reappears at t9 in
        # portion 1): portion 0 log must end with D, portion 1 start with AA
        idx = walkthrough_index
        o5 = int(idx._oid(5))
        assert log_symbols(idx, 0, o5)[-1] == EV_D
        assert idx.logs.last_anchor(idx.logs.find(0, o5)) == (3, (7, 1))
        assert idx.logs.first_anchor(idx.logs.find(1, o5)) == (9, (7, 2))


def check_seek(walk, seeking, orig, oracle, ok):
    """``seeking`` is ``walk`` or, after a first state that is a true state
    of the walk for which ``ok(t)`` holds, a tail of it."""
    if seeking == walk:
        return
    (sym, t, p), n = seeking[0], len(walk) - len(seeking)
    assert sym is None and ok(t) and oracle.position_of(orig, t) == p, (orig, t)
    assert n >= 0 and walk[n][1:] == (t, p) and walk[n + 1:] == seeking[1:], (orig, t)


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_walkers_match_oracle(name, period, indexes, oracles, monkeypatch):
    """Every forward state equals the oracle position at that instant, and
    the backward walk from the log's end (next snapshot or D anchor) yields
    the same states in reverse; a whole-timeline trajectory, which walks one
    log per portion, is the oracle's.

    A walk that seeks starts at a true state at or before the seek instant
    (forward) or at or after the floor (backward), then goes on as the walk
    that does not seek, with checkpoints every STRIDE symbols and at every
    symbol."""
    idx, oracle = indexes[name, period], oracles[name]
    logs = idx.logs
    monkeypatch.setattr(trajindex.logs, "STRIDE", 1)
    seekers = (logs, TrajectoryIndex.from_bytes(idx.to_bytes()).logs)
    table = logs.table
    for h, g, oid, start in log_starts(idx):
        assert logs.find(h, oid) == g
        orig = int(idx.ids[oid])
        fwd = [start]
        for sym, t, p in logs.elements(g, *start, logs.portion_end(h)):
            assert (sym is None) or sym >= MOVE_BASE
            fwd.append((t, p))
        if table.ends_d[g]:
            end = logs.last_anchor(g)
        elif h + 1 < len(idx.snapshots):
            end = (logs.portion_end(h), idx.snapshots[h + 1].find_object(oid))
        else:  # a last portion cut short by t_max has no next snapshot
            end = fwd[-1]
        assert fwd[-1] == end
        for t, p in fwd:
            assert oracle.position_of(orig, t) == p, (h, orig, t)
        back = [end] + [
            (t, p) for _sym, t, p in logs.elements_backward(h, g, *end, h * period)
        ]
        # D restates the end state and AA the start state: drop repeats
        assert [st for st, _ in groupby(back)] == fwd[::-1], (h, orig)
        t_s, t_e = start[0], end[0]
        walk = list(logs.elements(g, *start, t_e))
        for q in range(t_s, t_e + 1, max(1, (t_e - t_s) // 6)):
            walk_back = list(logs.elements_backward(h, g, *end, q))
            for walker in seekers:
                seeking = list(walker.elements(g, *start, t_e, seek=q))
                check_seek(walk, seeking, orig, oracle, lambda t: t <= q)
                seeking = list(walker.elements_backward(h, g, *end, q, seek=True))
                check_seek(walk_back, seeking, orig, oracle, lambda t: t >= q)
    t_max = idx.params.t_max
    for orig in idx.ids.tolist():
        assert idx.trajectory(orig, 0, t_max) == oracle.trajectory(orig, 0, t_max), orig


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_forward_walk_ends_at_its_log_end(name, period, indexes):
    """A forward walk covers its own log: with the timeline's end as its
    limit, it stops at the log's end instant, at the D anchor or at the
    next snapshot's cell, though its object has a log in a later portion.
    A walk that starts at its limit yields nothing and looks up no log, so
    portion ``n_portions``, a last snapshot's at t_max, needs none."""
    idx = indexes[name, period]
    logs, t_max = idx.logs, idx.params.t_max
    crossed = 0
    for h, g, oid, start in log_starts(idx):
        last = start
        for _sym, t, p in logs.elements(g, *start, t_max):
            last = (t, p)
        if logs.table.ends_d[g]:
            end = logs.last_anchor(g)
        elif h + 1 < len(idx.snapshots):
            end = (logs.portion_end(h), idx.snapshots[h + 1].find_object(oid))
        else:
            end = (t_max, last[1])
        assert last == end, (h, oid)
        crossed += any(logs.find(later, oid) >= 0 for later in range(h + 1, logs.n_portions))
    assert crossed
    assert logs.find(logs.n_portions, 0) == -1
    assert list(logs.elements(-1, t_max, (0, 0), t_max)) == []


def test_tables_are_held_narrow(indexes):
    """Every integer array of the log table, the checkpoints and the rule
    tables, built or loaded, has the dtype ``narrow`` picks for its range."""
    for idx in indexes.values():
        for index in (idx, TrajectoryIndex.from_bytes(idx.to_bytes())):
            logs, rules = index.logs, index.rules
            tables = ("sym_span", "sym_dx", "sym_dy", "sym_mbr", "sym_pairs")
            arrays = [logs.syms, logs.bounds, logs.d_vals, logs.p_vals, *logs.table,
                      *logs.checkpoints, *(np.asarray(getattr(rules, t)) for t in tables)]
            for a in arrays:
                assert a.dtype == bool or a.dtype == narrow(a).dtype, (a.dtype, narrow(a).dtype)
            assert logs.table.starts_aa.dtype == logs.table.ends_d.dtype == bool


def test_checkpoints_past_a_wide_relocation(monkeypatch):
    """Moves of one cell east keep the displacement tables one byte wide,
    and a gap relocates the object 300 cells east: the checkpoint sums
    widen before they take in the relocation."""
    monkeypatch.setattr(trajindex.logs, "STRIDE", 1)
    series = {1: [(0, [(x, 5) for x in range(6)]), (10, [(x, 5) for x in range(305, 311)])]}
    idx = TrajectoryIndex.build(series, period=16, k=2, side=512)
    assert np.asarray(idx.rules.sym_dx).itemsize == 1
    assert idx.logs.checkpoints.off[-1] > 0
    oracle = Oracle(series)
    for t in range(16):
        assert idx.position_of(1, t) == oracle.position_of(1, t), t


@pytest.mark.parametrize("stride", [1, 3, trajindex.logs.STRIDE])
def test_block_boxes_hold_every_position(stride, monkeypatch, indexes):
    """Each block of a log after its first, from a checkpoint to the next
    checkpoint or the log's end, has as box the tight bounds of every
    position it visits, relative to the position it starts at: each move
    symbol expanded to terminals, an AA's anchor, both ends of an RM
    relocation and a D's anchor.  The log's first row holds the tight
    bounds of every position the whole log visits, relative to its start.
    Every box is held narrow."""
    monkeypatch.setattr(trajindex.logs, "STRIDE", stride)
    for idx in indexes.values():
        index = TrajectoryIndex.from_bytes(idx.to_bytes())
        logs, cp, table = index.logs, index.logs.checkpoints, index.logs.table
        assert cp.box.dtype == narrow(cp.box).dtype
        assert len(cp.box) == len(table.ids) + int(cp.off[-1])
        reach = {}  # a move symbol's terminal positions as (x1, y1, x2, y2, dx, dy)
        for _h, g, _oid, (_t, (x, y)) in log_starts(index):
            s, s_end, p_at, lo_cp, hi_cp = (
                int(a[i]) for a, i in ((table.sym_off, g), (table.sym_off, g + 1),
                                       (table.p_off, g), (cp.off, g), (cp.off, g + 1))
            )
            body = s + bool(table.starts_aa[g])
            cuts = [s] + [body + j * stride for j in range(1, hi_cp - lo_cp + 1)] + [s_end]
            xs, ys, whole, rows = x, y, [x, y, x, y], []
            for lo, hi in zip(cuts, cuts[1:]):
                x0, y0 = x, y
                box = [x, y, x, y]
                for sym in logs.syms[lo:hi].tolist():
                    if sym >= MOVE_BASE:
                        if sym not in reach:
                            steps = [decode(m - MOVE_BASE) for m in index.rules.expand(sym)]
                            px, py = np.cumsum(steps, axis=0).T.tolist()
                            reach[sym] = (min(px), min(py), max(px), max(py), px[-1], py[-1])
                        x1, y1, x2, y2, dx, dy = reach[sym]
                        box = [min(box[0], x + x1), min(box[1], y + y1),
                               max(box[2], x + x2), max(box[3], y + y2)]
                        x, y = x + dx, y + dy
                    elif sym == EV_RM:
                        dx, dy = decode(int(logs.p_vals[p_at]))
                        p_at += 1
                        x, y = x + dx, y + dy
                        box = [min(box[0], x), min(box[1], y), max(box[2], x), max(box[3], y)]
                    elif sym in (EV_AA, EV_D):  # the anchor is the current position
                        assert logs.p_vals[p_at:p_at + 2].tolist() == [x, y]
                        p_at += 2
                rows.append([box[0] - x0, box[1] - y0, box[2] - x0, box[3] - y0])
                whole = [min(whole[0], box[0]), min(whole[1], box[1]),
                         max(whole[2], box[2]), max(whole[3], box[3])]
            rows[0] = [whole[0] - xs, whole[1] - ys, whole[2] - xs, whole[3] - ys]
            assert cp.box[g + lo_cp:g + hi_cp + 1].tolist() == rows, (stride, g)


@pytest.mark.parametrize("stride", [1, 3, trajindex.logs.STRIDE])
def test_region_walk_skips_only_blocks_off_the_region(stride, monkeypatch, indexes, oracles):
    """A forward walk given a region yields true states, each one a state of
    the walk without it, and ends where that walk ends; where it skips a
    block, the object lies outside the region at every instant skipped."""
    monkeypatch.setattr(trajindex.logs, "STRIDE", stride)
    rng = random.Random(stride)
    skipped = walked = 0
    for (name, _period), idx in sorted(indexes.items()):
        index, oracle = TrajectoryIndex.from_bytes(idx.to_bytes()), oracles[name]
        logs, side = index.logs, index.params.side
        for h, g, oid, start in log_starts(index):
            orig, t_e = int(index.ids[oid]), int(logs.table.end[g])
            cx, cy = (c + rng.randrange(-40, 41) for c in start[1])
            r = clip_region((cx - 8, cy - 8, cx + 8, cy + 8), side)
            if r is None:
                continue
            plain = [(None, *start)] + list(logs.elements(g, *start, t_e))
            at = {t: k for k, (_sym, t, _p) in enumerate(plain)}
            k_prev, last = 0, plain[0]
            for sym, t, p in logs.elements(g, *start, t_e, region=r):
                k = at[t]
                assert plain[k][1:] == (t, p), (stride, orig, t)
                if k != k_prev + 1 or plain[k][0] != sym:  # a block was skipped
                    skipped += 1
                    for u in range(last[1] + 1, t + 1):
                        q = oracle.position_of(orig, u)
                        assert q is None or not contains(r, *q), (stride, orig, u)
                else:
                    walked += 1
                k_prev, last = k, (sym, t, p)
            assert last[1:] == plain[-1][1:], (stride, orig)
    assert skipped and walked


@pytest.mark.parametrize("stride", [1, 3, trajindex.logs.STRIDE])
def test_first_block_meeting_keeps_every_visit(stride, monkeypatch, indexes, oracles):
    """For a window and a region, ``first_block_meeting`` gives None only
    when the object lies outside the region at every window instant its log
    covers, and else an instant of the log no later than the first such
    visit.  A log whose box misses the region is dropped before any
    checkpoint is bisected."""
    monkeypatch.setattr(trajindex.logs, "STRIDE", stride)
    rng = random.Random(stride)
    bisected, inner = [], trajindex.logs.bisect_left

    def counting(a, *args):
        bisected.append(a)
        return inner(a, *args)

    monkeypatch.setattr(trajindex.logs, "bisect_left", counting)
    dropped = found = 0
    for (name, period), idx in sorted(indexes.items()):
        index, oracle = TrajectoryIndex.from_bytes(idx.to_bytes()), oracles[name]
        logs, cp, side = index.logs, index.logs.checkpoints, index.params.side
        for h, g, oid, (t_c, p_c) in log_starts(index):
            orig, end = int(index.ids[oid]), int(logs.table.end[g])
            t_from = rng.randint(h * period, logs.portion_end(h))
            t_to = rng.randint(t_from, logs.portion_end(h))
            cx, cy = (c + rng.randrange(-40, 41) for c in p_c)
            r = clip_region((cx - 8, cy - 8, cx + 8, cy + 8), side)
            if r is None:
                continue
            bisected.clear()
            got = logs.first_block_meeting(g, t_c, p_c, t_from, t_to, r)
            visits = [
                u for u in range(max(t_from, t_c), min(t_to, end) + 1)
                if (q := oracle.position_of(orig, u)) is not None and contains(r, *q)
            ]
            if got is None:
                assert not visits, (stride, orig, t_from, t_to, r)
            else:
                found += 1
                assert t_c <= got <= (visits[0] if visits else t_to), (stride, orig, got)
            lo, hi = int(cp.off[g]), int(cp.off[g + 1])
            x1, y1, x2, y2 = cp.box[g + lo].tolist()
            x, y = p_c
            if x + x2 < r[0] or x + x1 > r[2] or y + y2 < r[1] or y + y1 > r[3]:
                assert got is None and all(a is not logs._cp.t for a in bisected), (stride, orig)
                dropped += hi > lo  # a log of several blocks
    assert dropped and found
