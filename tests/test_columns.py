"""Column states: each log's position at shared instants inside its
portion, and the time slices and kNN queries that filter a column instead
of the snapshot."""

import random

import pytest
from conftest import DATASET_SIDE, deadline

import trajindex.logs
from trajindex import Oracle, TrajectoryIndex
from trajindex.bits import narrow
from trajindex.geometry import expanded_region
from trajindex.grammar import EV_RM, EV_RNM
from trajindex.logs import LogStore


def _loaded(idx):
    """``idx`` loaded again, its columns derived at the current span."""
    return TrajectoryIndex.from_bytes(idx.to_bytes())


def _log_start(index, h, g):
    logs, oid = index.logs, int(index.logs.table.ids[g])
    if logs.table.starts_aa[g]:
        return logs.first_anchor(h, oid)
    return h * index.params.period, index.snapshots[h].find_object(oid)


def _boundaries(index, h, g):
    """(instant, position, symbol after it) at every element boundary of
    log g, from an unseeked walk: its start, then the state each element
    reaches.  The symbol is None past the last element."""
    logs = index.logs
    oid = int(logs.table.ids[g])
    start = _log_start(index, h, g)
    walk = logs.elements(h, oid, *start, int(logs.table.end[g]))
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
                        t, pos, nxt = [st for st in states if st[0] <= c][-1]
                        want.append((g, pos, c - t))
                        if nxt in (EV_RM, EV_RNM) and t < c:
                            seen["gap straddles"] += 1
                rows = range(cols.off[k], cols.off[k + 1])
                got = [(int(cols.log[r]), (int(cols.x[r]), int(cols.y[r])), int(cols.lag[r]))
                       for r in rows]
                assert got == want, (name, period, h, j)
                if h == logs.n_portions - 1 and p.t_max % period:
                    seen["last portion cut"] += 1
    assert all(seen.values()), seen


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


def test_mid_portion_slice_walks_fewer_logs_than_snapshot_candidates(indexes, oracles,
                                                                     monkeypatch):
    """On a period-720 random walk, a slice in the earlier half of a
    portion, away from its snapshot, starts fewer log walks than the
    snapshot holds candidates in the region expanded to t_q."""
    index, oracle = indexes["random", 720], oracles["random"]
    starts = []
    walk = LogStore.elements

    def counted(self, *args, **kwargs):
        starts.append(args[0])
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(LogStore, "elements", counted)
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
    assert answered and walked < candidates / 3, (walked, candidates, answered)


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
