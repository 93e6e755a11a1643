"""Column states: each log's position at shared instants inside its
portion, and the time slices and kNN queries that filter a column instead
of the snapshot."""

import math
import random

import pytest
from conftest import DATASET_SIDE, deadline

import trajindex.logs
from trajindex import Oracle, TrajectoryIndex
from trajindex.bits import narrow
from trajindex.engine import _box_distance
from trajindex.geometry import expanded_region
from trajindex.grammar import EV_RM, EV_RNM
from trajindex.logs import LogStore


def _loaded(idx):
    """``idx`` loaded again, its columns derived at the current span."""
    return TrajectoryIndex.from_bytes(idx.to_bytes())


def _log_start(index, h, g):
    logs, oid = index.logs, int(index.logs.table.ids[g])
    if logs.table.starts_aa[g]:
        return logs.first_anchor(g)
    return h * index.params.period, index.snapshots[h].find_object(oid)


def _boundaries(index, h, g):
    """(instant, position, symbol after it) at every element boundary of
    log g, from an unseeked walk: its start, then the state each element
    reaches.  The symbol is None past the last element."""
    logs = index.logs
    oid = int(logs.table.ids[g])
    start = _log_start(index, h, g)
    walk = logs.elements(g, *start, int(logs.table.end[g]))
    states = [start] + [(t, p) for _sym, t, p in walk]
    s = int(logs.table.sym_off[g]) + bool(logs.table.starts_aa[g])
    after = logs.syms[s:int(logs.table.sym_off[g + 1])].tolist() + [None]
    return [(t, p, sym) for (t, p), sym in zip(states, after)]


@pytest.mark.parametrize("span", [1, 2, 3, 7])
def test_column_states_match_an_unseeked_walk(span, monkeypatch, indexes):
    """Every log's state in every column of its portion is its last element
    boundary at or before the column instant; a log that opens with AA
    after the instant or closes with D before it has none."""
    monkeypatch.setattr(trajindex.logs, "COLUMN_SPAN", span)
    seen = dict.fromkeys(("aa after", "d before", "gap straddles", "last portion cut"), 0)
    for (name, period), idx in sorted(indexes.items()):
        index = _loaded(idx)
        logs, p = index.logs, index.params
        cols = logs.columns
        per = (min(period, p.t_max) - 1) // span
        assert len(cols.off) == logs.n_portions * per + 1, (name, period)
        for a in cols:
            assert a.dtype == narrow(a).dtype, (name, period, a.dtype)
        for h in range(logs.n_portions):
            lo, pe = h * period, logs.portion_end(h)
            walks = {g: _boundaries(index, h, g) for g in range(logs.bounds[h], logs.bounds[h + 1])}
            for j in range(1, (pe - lo - 1) // span + 1):
                c, k = lo + j * span, h * per + j - 1
                want = []
                for g, states in walks.items():
                    if states[0][0] > c:
                        seen["aa after"] += 1
                    elif states[-1][0] < c:
                        seen["d before"] += 1
                    else:
                        want.append(g)
                        t, _pos, nxt = [st for st in states if st[0] <= c][-1]
                        if nxt in (EV_RM, EV_RNM) and t < c:
                            seen["gap straddles"] += 1
                got = cols.log[cols.off[k]:cols.off[k + 1]].tolist()
                assert got == want, (name, period, h, j)
                if h == logs.n_portions - 1 and p.t_max % period:
                    seen["last portion cut"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("span", [1, 2, 3, 7])
def test_column_boxes_hold_every_position_up_to_the_next_column(span, monkeypatch, indexes,
                                                                 oracles):
    """Every position a log visits from its last element boundary at or
    before the column instant up to the next column's instant, or up to
    the portion end for a portion's last column, lies inside the state's
    placed box."""
    monkeypatch.setattr(trajindex.logs, "COLUMN_SPAN", span)
    checked = wider = 0
    for (name, period), idx in sorted(indexes.items()):
        index, timelines = _loaded(idx), oracles[name].timelines
        logs, cols = index.logs, index.logs.columns
        per = (min(period, index.params.t_max) - 1) // span
        for h in range(logs.n_portions):
            lo, pe = h * period, logs.portion_end(h)
            for j in range(1, (pe - lo - 1) // span + 1):
                c, k = lo + j * span, h * per + j - 1
                until = pe if j == (pe - lo - 1) // span else c + span
                for r in range(cols.off[k], cols.off[k + 1]):
                    g = int(cols.log[r])
                    t, (x, y), _nxt = [st for st in _boundaries(index, h, g) if st[0] <= c][-1]
                    x1, y1, x2, y2 = cols.box[r].tolist()
                    assert x1 <= x <= x2 and y1 <= y <= y2, (name, period, c)
                    wider += x2 - x1 + y2 - y1 > 0
                    timeline = timelines[int(index.ids[logs.table.ids[g]])]
                    for u in range(t, until + 1):
                        p = timeline.get(u)
                        if p is not None:
                            checked += 1
                            assert x1 <= p[0] <= x2 and y1 <= p[1] <= y2, (name, period, c, u)
    assert checked and wider


@pytest.mark.parametrize("stride", [1, 16])
@pytest.mark.parametrize("span", [1, 2, 3, 64, 10**6])
def test_slice_and_knn_match_oracle_at_any_span(span, stride, monkeypatch, indexes, oracles):
    monkeypatch.setattr(trajindex.logs, "COLUMN_SPAN", span)
    monkeypatch.setattr(trajindex.logs, "STRIDE", stride)
    rng = random.Random(span * 31 + stride)
    for (name, period), idx in sorted(indexes.items()):
        index, oracle = _loaded(idx), oracles[name]
        side, t_max = DATASET_SIDE[name], index.params.t_max
        for _ in range(12):
            t = rng.randrange(t_max + 1)
            if rng.random() < 0.3:  # on or next to a column instant
                t = min(t_max, t - t % period + rng.choice((1, 2, 3)) * min(span, period)
                        + rng.choice((-1, 0, 1)))
            x, y, w = rng.randrange(side), rng.randrange(side), rng.randrange(1, 80)
            region = (x - w, y - w, x + w, y + w)
            assert index.time_slice(region, t) == oracle.time_slice(region, t), (name, period, t)
            k = rng.randrange(1, 8)
            point = (rng.randrange(side), rng.randrange(side))
            got, want = index.knn(k, point, t), oracle.knn(k, point, t)
            assert [o for o, _d in got] == [o for o, _d in want], (name, period, t, point)
            assert all(abs(a - b) <= 1e-9 for (_o, a), (_p, b) in zip(got, want))


def _instant_kind(index, t):
    """Which kind of kNN instant t is, as ``LogStore.candidates`` tells
    them apart at the current column span."""
    period, t_max = index.params.period, index.params.t_max
    h, dt = divmod(t, period)
    if not dt:
        return "snapshot"
    if h == index.logs.n_portions - 1 and t_max % period:
        return "last portion cut short"
    span = trajindex.logs.COLUMN_SPAN
    if dt < span:
        return "before the first column"
    return "between columns" if dt % span else "at a column"


def _knn_candidates_by_loop(index, t_q, point):
    """{log: (id, bound)} of a kNN query's rows and bounds as a list loop
    with ``math.hypot``: the latest column's states plus the AA logs that
    open after it and by t_q, else the portion's logs, kept when they end at
    or after t_q, each bounded by the distance to its placed box."""
    logs, (qx, qy) = index.logs, point
    h = t_q // index.params.period
    col = logs._column(t_q)
    c = col[0] if col else h * index.params.period
    boxes = {}
    for g in range(int(logs.bounds[h]), int(logs.bounds[h + 1])):
        anchor = logs.first_anchor(g)
        if col is None or (anchor and c < anchor[0] <= t_q):
            boxes[g] = logs.log_box[g].tolist()
    if col is not None:
        cols = logs.columns
        for r in range(col[1], col[2]):
            boxes[int(cols.log[r])] = cols.box[r].tolist()
    return {
        g: (int(logs.table.ids[g]), math.hypot(max(x1 - qx, 0, qx - x2), max(y1 - qy, 0, qy - y2)))
        for g, (x1, y1, x2, y2) in boxes.items() if logs.table.end[g] >= t_q
    }


@pytest.mark.parametrize("span", [1, 2, 3, 7])
def test_knn_bounds_are_sound(span, monkeypatch, indexes, oracles, appearance_index,
                              appearance_series):
    """Between snapshots every object active at t_q is a kNN candidate, and
    no candidate's bound exceeds its object's exact distance; at any
    instant ``knn`` answers as the oracle, for any count, and at a snapshot
    instant it walks no log."""
    monkeypatch.setattr(trajindex.logs, "COLUMN_SPAN", span)
    rng = random.Random(span)
    builds = [(key, idx, oracles[key[0]], DATASET_SIDE[key[0]])
              for key, idx in sorted(indexes.items())]
    builds.append((("appearance", 8), appearance_index, Oracle(appearance_series), 32))
    seen = dict.fromkeys(("snapshot", "before the first column", "at a column",
                          "between columns", "last portion cut short"), 0)
    for key, idx, oracle, side in builds:
        index = _loaded(idx)
        period, t_max = index.params.period, index.params.t_max
        instants = [rng.randrange(t_max + 1) for _ in range(6)]
        for h in rng.sample(range(index.logs.n_portions), min(3, index.logs.n_portions)):
            instants += [h * period + j * span + rng.choice((0, 1)) for j in range(3)]
        if t_max < 20:
            instants = range(t_max + 1)
        for t in instants:
            if t > t_max:
                continue
            kind = _instant_kind(index, t)
            seen[kind] += 1
            point = (rng.randrange(-8, side + 8), rng.randrange(-8, side + 8))
            exact = {int(index._oid(o)): math.hypot(p[0] - point[0], p[1] - point[1])
                     for o, tl in oracle.timelines.items() if (p := tl.get(t)) is not None}
            if kind != "snapshot":
                ids, logs, box = index.logs.candidates(t)
                bounds = _box_distance(*map(float, point), box).tolist()
                ids, logs = ids.tolist(), logs.tolist()
                assert len(set(ids)) == len(ids) and set(exact) <= set(ids), (key, t, kind)
                want = _knn_candidates_by_loop(index, t, point)
                assert sorted(want) == sorted(logs), (key, t, kind)
                for bound, o, g in zip(bounds, ids, logs):
                    assert want[g][0] == o and want[g][1] * (1 - 1e-9) <= bound <= want[g][1]
                for bound, o in zip(bounds, ids):
                    assert o not in exact or bound <= exact[o], (key, t, kind, o)
            walked = index.counters["knn_symbols"]
            for count in (1, 3, len(exact), len(exact) + 2):
                assert index.knn(count, point, t) == oracle.knn(count, point, t), (key, t, count)
            assert kind != "snapshot" or index.counters["knn_symbols"] == walked, (key, t)
    if span == 1:  # every instant past a snapshot is on a column
        del seen["before the first column"], seen["between columns"]
    assert all(seen.values()), seen


def test_mid_portion_slice_walks_fewer_logs_than_snapshot_candidates(indexes, oracles,
                                                                     monkeypatch):
    """On a period-720 random walk, a slice in the earlier half of a
    portion, away from its snapshot, starts fewer log walks than the
    snapshot holds candidates in the region expanded to t_q."""
    index, oracle = indexes["random", 720], oracles["random"]
    starts = []
    walk = LogStore.state_at

    def counted(self, *args, **kwargs):
        starts.append(args[0])
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(LogStore, "state_at", counted)
    m_sp, side = index.params.max_speed, index.params.side
    rng = random.Random(3)
    walked = candidates = answered = 0
    for _ in range(20):
        t = rng.randrange(100, 360)
        x, y = rng.randrange(side), rng.randrange(side)
        region = (x - 20, y - 20, x + 20, y + 20)
        starts.clear()
        got = index.time_slice(region, t)
        assert got == oracle.time_slice(region, t)
        er = expanded_region(region, 0, t, m_sp, side)
        walked += len(starts)
        candidates += len(index.snapshots[0].objects_in_region(er))
        answered += len(got)
    assert answered and 0 < walked < candidates / 3, (walked, candidates, answered)


def test_columns_mem_bytes_is_their_arrays(indexes):
    for key in (("random", 720), ("appear", 120), ("routes", 30)):
        for index in (indexes[key], _loaded(indexes[key])):
            mem = index.stats()["mem_bytes"]
            assert mem["columns"] == sum(a.nbytes for a in index.logs.columns), key
    assert len(indexes["random", 720].logs.columns.log) > 0


def test_long_portion_lays_no_columns():
    """A period far longer than the data lays out no columns, and the
    queries answer from the snapshots."""
    series = {1: [(0, [(3, 3), (4, 3)]), (2**40, [(5, 5)])], 2: [(7, [(9, 9)] * 3)]}
    oracle = Oracle(series)
    with deadline(5.0):
        built = TrajectoryIndex.build(series, period=2**40, side=16)
        for index in (built, _loaded(built)):
            assert index.logs.columns.off.tolist() == [0]
            assert len(index.logs.columns.log) == 0
            for t in (1, 8, 2**39, 2**40 - 1, 2**40):
                region = (0, 0, 15, 15)
                assert index.time_slice(region, t) == oracle.time_slice(region, t), t
                assert index.knn(2, (4, 4), t) == oracle.knn(2, (4, 4), t), t


def test_more_states_than_the_limit_lay_no_columns(monkeypatch, indexes, oracles):
    """Past the limit (here 16 per stream symbol) an index lays out no
    columns, and its queries answer from the snapshots."""
    monkeypatch.setattr(trajindex.logs, "_COLUMN_LIMIT", 0)
    monkeypatch.setattr(trajindex.logs, "COLUMN_SPAN", 1)
    idx = indexes["routes", 720]
    assert 16 * len(idx.logs.syms) < len(idx.logs.table.ids) * 719  # states at span 1
    index = _loaded(idx)
    assert index.logs.columns.off.tolist() == [0]
    oracle = oracles["routes"]
    for t in (1, 100, 500, 719, 721):
        region = (0, 0, 200, 200)
        assert index.time_slice(region, t) == oracle.time_slice(region, t), t
        got = index.knn(3, (50, 50), t)
        assert [o for o, _d in got] == [o for o, _d in oracle.knn(3, (50, 50), t)], t
