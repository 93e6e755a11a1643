import hashlib
import math
import random

import numpy as np
import pytest
from conftest import deadline

import trajindex.ingest
from trajindex import Records, TrajectoryIndex, normalize, parse_binary, parse_csv
from trajindex.ingest import MAX_INSTANTS, InstantLimitError


def _records(rows):
    """Records from (oid, t, x, y) rows."""
    oid, t, x, y = zip(*rows) if rows else ((),) * 4
    return Records(
        np.array(oid, dtype=np.int64), *(np.array(c, dtype=np.float64) for c in (t, x, y))
    )


def _columns(records):
    assert records.oid.dtype == np.int64
    assert all(c.dtype == np.float64 for c in (records.t, records.x, records.y))
    return tuple(c.tolist() for c in records)


def reference_normalize(rows, cell_size, time_step, speed_cap=None, gap_threshold=15):
    """The per-record normalize that the column-wise one replaced, on
    (oid, t, x, y) rows; parameters are assumed valid."""
    by_object = {}
    for rec in rows:
        by_object.setdefault(rec[0], []).append(rec)
    out = {}
    for oid in sorted(by_object):
        recs = sorted(by_object[oid], key=lambda rec: rec[1])
        if recs[0][1] < 0:
            raise ValueError("object %r: negative timestamp %r" % (oid, recs[0][1]))
        kept = [recs[0]]
        for rec in recs[1:]:
            prev = kept[-1]
            if rec[1] == prev[1]:
                continue  # duplicate timestamp: first wins
            if speed_cap is not None:
                dist = math.hypot(rec[2] - prev[2], rec[3] - prev[3])
                if dist / (rec[1] - prev[1]) > speed_cap:
                    continue
            kept.append(rec)
        segments = []
        seg = [kept[0]]
        for rec in kept[1:]:
            if rec[1] - seg[-1][1] >= gap_threshold * time_step:
                segments.append(seg)
                seg = [rec]
            else:
                seg.append(rec)
        segments.append(seg)
        built = []
        prev_end = -1
        for seg in segments:
            i_first = int(math.floor(seg[0][1] / time_step + 0.5))
            i_last = int(math.floor(seg[-1][1] / time_step + 0.5))
            start = max(i_first, prev_end + 1)
            if start > i_last:
                continue
            cells = []
            j = 0
            for inst in range(start, i_last + 1):
                tau = min(max(inst * time_step, seg[0][1]), seg[-1][1])
                while j + 1 < len(seg) and seg[j + 1][1] < tau:
                    j += 1
                a = seg[j]
                b = seg[j + 1] if j + 1 < len(seg) else seg[j]
                if b[1] > a[1]:
                    frac = (tau - a[1]) / (b[1] - a[1])
                else:
                    frac = 0.0
                cx = a[2] + frac * (b[2] - a[2])
                cy = a[3] + frac * (b[3] - a[3])
                cells.append(
                    (int(math.floor(cx / cell_size)), int(math.floor(cy / cell_size)))
                )
            built.append((start, cells))
            prev_end = i_last
        if built:
            out[oid] = built
    return out


class TestParseCsv:
    def test_basic(self):
        got = parse_csv("1,0,3,4\n2,1.5,0.25,9\n")
        assert _columns(got) == ([1, 2], [0.0, 1.5], [3.0, 0.25], [4.0, 9.0])

    def test_bytes_and_iterable_inputs(self):
        want = ([7], [2.0], [1.0], [1.0])
        assert _columns(parse_csv(b"7,2,1,1\n")) == want
        assert _columns(parse_csv(iter(["7,2,1,1\n"]))) == want
        assert _columns(parse_csv(["id,time,x,y\r\n", "7,2,1,1\r\n"], has_header=True)) == want

    def test_header_skipped(self):
        got = parse_csv("id,time,x,y\n3,1,2,2\n", has_header=True)
        assert _columns(got) == ([3], [1.0], [2.0], [2.0])

    def test_blank_lines_ignored(self):
        assert _columns(parse_csv("\n1,1,1,1\n\n")) == ([1], [1.0], [1.0], [1.0])

    def test_whitespace_lines_and_crlf(self):
        got = parse_csv("1,1,1,1\r\n   \r\n\t\r\n 2 , 3.5 ,4,5 \r\n")
        assert _columns(got) == ([1, 2], [1.0, 3.5], [1.0, 4.0], [1.0, 5.0])

    def test_underscored_digits(self):
        got = parse_csv("1_000,2_0.5,1_2,3e1_0\n")
        assert _columns(got) == ([1000], [20.5], [12.0], [3e10])

    def test_empty_input(self):
        assert _columns(parse_csv("")) == ([], [], [], [])
        assert _columns(parse_csv("id,time,x,y\n", has_header=True)) == ([], [], [], [])

    def test_field_inside_an_iterable_line(self):
        # an iterable's line is one record even if it holds a "\n"
        assert _columns(parse_csv(["1,2,3,\n4"])) == ([1], [2.0], [3.0], [4.0])

    def test_field_count_error_names_line(self):
        with pytest.raises(ValueError, match="line 2: expected 4 fields, got 3"):
            parse_csv("1,1,1,1\n2,2,2\n")
        # a short row and a long row that make up the total count
        with pytest.raises(ValueError, match="line 1: expected 4 fields, got 3"):
            parse_csv("1,1,1\n2,2,2,2,2\n")
        with pytest.raises(ValueError, match="line 3: expected 4 fields, got 5"):
            parse_csv("1,1,1,1\n\n2,2,2,2,2\n")

    def test_non_numeric_error_names_line(self):
        with pytest.raises(ValueError, match="line 3: non-numeric"):
            parse_csv("id,time,x,y\n1,1,1,1\n1,2,east,4\n", has_header=True)
        with pytest.raises(ValueError, match=r"line 2: non-numeric field in '1\.5,2,3,4'"):
            parse_csv("1,1,1,1\n1.5,2,3,4\n")

    def test_non_finite_error_names_line(self):
        for field in ("inf", "nan", "-inf", "1e400"):
            with pytest.raises(ValueError, match="line 2: non-finite field"):
                parse_csv("1,1,1,1\n1,2,%s,4\n" % field)

    def test_id_range_error_names_line(self):
        for oid in (-1, 2**63, -(2**64)):
            with pytest.raises(ValueError, match=r"line 2: object id %d outside 0\.\.2\^63-1" % oid):
                parse_csv("1,1,1,1\n%d,2,3,4\n" % oid)
        assert _columns(parse_csv("%d,0,0,0\n" % (2**63 - 1)))[0] == [2**63 - 1]

    def test_first_bad_line_wins(self):
        # a later line's bad column is converted first, an earlier one reported
        with pytest.raises(ValueError, match="line 1: non-finite field"):
            parse_csv("1,inf,0,0\nx,1,1,1\n")


def _packed(widths, rows):
    return bytes(widths) + b"".join(
        v.to_bytes(w, "little") for row in rows for v, w in zip(row, widths)
    )


class TestParseBinary:
    def test_row_layout(self):
        data = bytes([2, 2, 2, 3]) + (
            (7).to_bytes(2, "little")
            + (260).to_bytes(2, "little")
            + (1).to_bytes(2, "little")
            + (70000).to_bytes(3, "little")
        )
        assert _columns(parse_binary(data)) == ([7], [260.0], [1.0], [70000.0])

    def test_empty_body(self):
        assert _columns(parse_binary(bytes([1, 1, 1, 1]))) == ([], [], [], [])

    def test_missing_header(self):
        with pytest.raises(ValueError, match="missing 4-byte width header"):
            parse_binary(b"\x01\x02")

    def test_bad_width(self):
        with pytest.raises(ValueError, match="invalid column width"):
            parse_binary(bytes([0, 1, 1, 1]))
        with pytest.raises(ValueError, match="invalid column width"):
            parse_binary(bytes([1, 9, 1, 1]) + b"\x00" * 12)

    def test_truncated_row_reports_offset(self):
        data = bytes([2, 2, 2, 3]) + b"\x00" * 5
        with pytest.raises(ValueError, match=r"offset 4 \(row size 9\)"):
            parse_binary(data)
        data = _packed([3, 5, 7, 1], [(1, 2, 3, 4)]) + b"\x00" * 15
        with pytest.raises(ValueError, match=r"offset 20 \(row size 16\)"):
            parse_binary(data)

    def test_round_trip(self):
        rows = [(0, 5, 10, 3), (12, 6, 255, 127), (3, 1000, 0, 64)]
        data = _packed([1, 2, 1, 1], rows)
        assert _columns(parse_binary(data)) == tuple(list(c) for c in zip(*rows))

    def test_odd_widths(self):
        rows = [(2**24 - 1, 2**40 - 1, 2**56 - 16, 0), (5, 7, 9, 11), (0, 2**39, 2**55, 1)]
        assert _columns(parse_binary(_packed([3, 5, 7, 2], rows))) == tuple(
            list(c) for c in zip(*rows)
        )

    def test_full_width_values(self):
        # times and coordinates round to float64; ids must fit 0..2^63-1
        rows = [(2**63 - 1, 2**64 - 1, 2**53 + 1, 2**63)]
        got = _columns(parse_binary(_packed([8, 8, 8, 8], rows)))
        assert got == ([2**63 - 1], [float(2**64)], [float(2**53)], [float(2**63)])
        bad = _packed([8, 1, 1, 1], [(1, 0, 0, 0), (2**64 - 1, 0, 0, 0)])
        with pytest.raises(ValueError, match=r"row 1: object id 18446744073709551615 outside 0\.\.2\^63-1"):
            parse_binary(bad)


class TestNormalize:
    def test_interpolates_midpoint(self):
        recs = _records([(1, 0, 0, 0), (1, 2, 2, 2)])
        assert normalize(recs, 1, 1) == {1: [(0, [(0, 0), (1, 1), (2, 2)])]}

    def test_gap_splits_into_segments(self):
        recs = _records([(1, 0, 0, 0), (1, 20, 5, 5)])
        got = normalize(recs, 1, 1, gap_threshold=15)
        assert got == {1: [(0, [(0, 0)]), (20, [(5, 5)])]}

    def test_small_gap_interpolated_through(self):
        recs = _records([(1, 0, 0, 0), (1, 10, 10, 0)])
        got = normalize(recs, 1, 1, gap_threshold=15)
        assert got == {1: [(0, [(i, 0) for i in range(11)])]}

    def test_speed_filter_drops_outlier(self):
        recs = _records(
            [
                (1, 0, 0, 0),
                (1, 1, 100, 0),  # 100 cells in one tick: impossible
                (1, 2, 2, 0),
            ]
        )
        got = normalize(recs, 1, 1, speed_cap=5)
        assert got == {1: [(0, [(0, 0), (1, 0), (2, 0)])]}

    def test_speed_filter_keeps_a_later_duplicate(self):
        # the outlier at t=1 is dropped, so its duplicate is tested anew
        recs = _records([(1, 0, 0, 0), (1, 1, 100, 0), (1, 1, 1, 0)])
        assert normalize(recs, 1, 1, speed_cap=5) == {1: [(0, [(0, 0), (1, 0)])]}
        assert normalize(recs, 1, 1) == {1: [(0, [(0, 0), (100, 0)])]}

    def test_duplicate_timestamp_first_wins(self):
        recs = _records([(1, 0, 0, 0), (1, 0, 9, 9), (1, 1, 1, 1)])
        assert normalize(recs, 1, 1) == {1: [(0, [(0, 0), (1, 1)])]}

    def test_unsorted_input(self):
        recs = _records([(1, 2, 2, 2), (1, 0, 0, 0)])
        assert normalize(recs, 1, 1) == {1: [(0, [(0, 0), (1, 1), (2, 2)])]}

    def test_cell_and_step_scaling(self):
        # readings every 30s, 10m cells
        recs = _records([(4, 0, 5, 5), (4, 60, 25, 15)])
        got = normalize(recs, 10, 30)
        assert got == {4: [(0, [(0, 0), (1, 1), (2, 1)])]}

    def test_offgrid_timestamps_round_to_instants(self):
        recs = _records([(1, 0.6, 4, 4), (1, 1.6, 6, 6)])
        got = normalize(recs, 1, 1)
        # nearest instants are 1 and 2; positions clamp to the raw extent
        assert got == {1: [(1, [(4, 4), (6, 6)])]}

    def test_objects_sorted_and_kept_separate(self):
        recs = _records([(5, 0, 1, 1), (2, 0, 3, 3), (2, 1, 3, 3)])
        got = normalize(recs, 1, 1)
        assert list(got) == [2, 5]
        assert got[5] == [(0, [(1, 1)])]

    def test_values_are_python_ints(self):
        got = normalize(_records([(3, 0.4, 1.5, 2.5)]), 1, 1)
        (start, cells), = got[3]
        assert type(start) is int and all(type(v) is int for v in cells[0])

    def test_idempotent_on_clean_series(self, walkthrough_series):
        recs = _records(
            [
                (oid, t0 + i, x, y)
                for oid, segs in walkthrough_series.items()
                for t0, cells in segs
                for i, (x, y) in enumerate(cells)
            ]
        )
        got = normalize(recs, 1, 1, gap_threshold=2)
        assert got == walkthrough_series

    def test_parameter_validation(self):
        recs = _records([(1, 0, 0, 0)])
        with pytest.raises(ValueError, match="cell_size"):
            normalize(recs, 0, 1)
        with pytest.raises(ValueError, match="time_step"):
            normalize(recs, 1, 0)
        with pytest.raises(ValueError, match="gap_threshold"):
            normalize(recs, 1, 1, gap_threshold=1)
        with pytest.raises(ValueError, match="negative timestamp"):
            normalize(_records([(1, -3, 0, 0)]), 1, 1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("cell_size", math.nan),
            ("cell_size", math.inf),
            ("time_step", math.nan),
            ("time_step", math.inf),
            ("speed_cap", math.nan),
            ("speed_cap", math.inf),
            ("speed_cap", -math.inf),
            ("gap_threshold", math.nan),
        ],
    )
    def test_non_finite_parameter_named(self, name, value):
        params = {"cell_size": 1.0, "time_step": 1.0, "speed_cap": None, "gap_threshold": 15}
        params[name] = value
        recs = _records([(1, 0, 0, 0), (1, 3, 3, 3)])
        with pytest.raises(ValueError, match="^%s must be" % name):
            normalize(recs, **params)

    def test_gap_beyond_float_range_named(self):
        recs = _records([(1, 0, 0, 0), (1, 3, 3, 3)])
        with pytest.raises(ValueError, match="^gap_threshold must be within float range"):
            normalize(recs, 1, 1, gap_threshold=10**400)

    def test_infinite_gap_never_splits(self):
        recs = _records([(1, 0, 0, 0), (1, 40, 40, 0)])
        got = normalize(recs, 1, 1, gap_threshold=math.inf)
        assert got == {1: [(0, [(i, 0) for i in range(41)])]}

    def test_non_finite_record_named(self):
        with pytest.raises(ValueError, match="object 4: non-finite"):
            normalize(_records([(4, 0, math.nan, 0)]), 1, 1)

    def test_out_of_int64_fails_named(self):
        with deadline(2.0), pytest.raises(ValueError, match="object 2: .*outside int64"):
            normalize(_records([(1, 0, 0, 0), (2, 1e30, 0, 0)]), 1, 1)
        with pytest.raises(ValueError, match="object 1: .*outside int64"):
            normalize(_records([(1, 0, -1e19, 0)]), 1, 1)
        with pytest.raises(ValueError, match="object 1: .*outside int64"):
            normalize(_records([(1, 0, 9.3e18, 0)]), 1, 1)

    def test_empty_input(self):
        assert normalize(_records([]), 1, 1) == {}


# A CSV with unsorted rows, duplicate timestamps, fractional times, gaps at
# and above the threshold (15 steps of 30 = 450), whitespace-only lines,
# CRLF line ends and a header.  With a speed cap of 5, object 3's outlier at
# t=41 goes and its duplicate at t=41 stays.
PINNED_CSV = (
    "id,time,x,y\r\n"
    "12,95.5,103.0,47.5\r\n"
    "3,10,5,5\r\n"
    "12,0,100,40\r\n"
    "   \r\n"
    "12,31.25,101.5,44\r\n"
    "40,0,1000,1000\r\n"
    "12,31.25,999,999\r\n"
    "3,41,500,5\r\n"
    "3,41,26,5\r\n"
    "\t\r\n"
    "3,40,25,5\r\n"
    "12,62,102,46\r\n"
    "7,45,0.5,0.5\r\n"
    "12,600,140,60\r\n"
    "40,450,1010,1010\r\n"
    "5,45,63,3\r\n"
    "12,630.4,150,61\r\n"
    "3,70,45,15\r\n"
    "40,480,1020,1000\r\n"
    "\r\n"
    "40,480,0,0\r\n"
    "5,15,33,33\r\n"
    "3,120,60,30\r\n"
    "12,700,155,70\r\n"
    "5,75.0,93,3\r\n"
)

# sha256 of repr(series) and of the index built from it at period 4
PINNED_DIGESTS = {
    (None, 15): (
        "a4f68ab6dfe57d07447404b88ff6d634419a2cf034fc5c1f67f2aff94b150d17",
        "f8c7e7bad45d702a074a25d0b0ba824a2c368b9173cfd3eebabd39a04b29c6b6",
    ),
    (5.0, 15): (
        "c27c1eb22b7f237e58f3b694ec609e29b0edaf7eb87e718bec92e8fb624445c6",
        "f005d77d6bc212f8a29a1060640b155763a860b16f4df21fc108ae5ded7f5345",
    ),
    (None, 2): (
        "344af10ba95b27ceccb01f44deb60ad421a691818c549c27a07ad3cdca60cf22",
        "05e828fa91aef83439a741e75c97d900c939c006b6f6619a562a651f57194dc0",
    ),
}


@pytest.mark.parametrize("speed_cap, gap", sorted(PINNED_DIGESTS, key=repr))
def test_pinned_ingest_digests(speed_cap, gap):
    records = parse_csv(PINNED_CSV, has_header=True)
    series = normalize(
        records, cell_size=10, time_step=30, speed_cap=speed_cap, gap_threshold=gap
    )
    index = TrajectoryIndex.build(series, period=4)
    got = (
        hashlib.sha256(repr(series).encode()).hexdigest(),
        hashlib.sha256(index.to_bytes()).hexdigest(),
    )
    assert got == PINNED_DIGESTS[speed_cap, gap]


def _random_rows(rng):
    """Noisy records: few objects, repeated and fractional times, jumps,
    negative coordinates and long silences."""
    rows = []
    for oid in rng.sample(range(1000), rng.randint(1, 5)):
        t = rng.choice([0.0, rng.uniform(0, 50), float(rng.randrange(100))])
        x, y = rng.uniform(-50, 200), rng.uniform(-50, 200)
        for _ in range(rng.randint(1, 25)):
            rows.append((oid, t, x, y))
            if rng.random() < 0.15:  # a duplicate timestamp
                rows.append((oid, t, x + rng.uniform(-30, 30), y))
            t += rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0, 6), rng.uniform(10, 120)])
            x += rng.uniform(-8, 8) * (20 if rng.random() < 0.1 else 1)
            y += rng.uniform(-8, 8)
            if rng.random() < 0.5:
                t, x, y = round(t), round(x), round(y)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_normalize_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows = _random_rows(rng)
        params = {
            "cell_size": rng.choice([1, 0.5, 3.0, 10]),
            "time_step": rng.choice([1, 1.0, 0.5, 2, 30]),
            "speed_cap": rng.choice([None, None, 1.0, 4.0, 25]),
            "gap_threshold": rng.choice([2, 3, 15, 15.5]),
        }
        want = reference_normalize(rows, **params)
        got = normalize(_records(rows), **params)
        assert got == want, (rows, params)
        assert repr(got) == repr(want)


class TestInstantLimit:
    def test_segments_past_the_limit_named(self):
        # a gap threshold past 10**12 instants keeps both records in one segment
        recs = _records([(1, 0, 0, 0), (1, 10**12, 5, 5), (7, 0, 1, 1), (7, 3, 2, 2)])
        with deadline(2.0), pytest.raises(InstantLimitError) as exc:
            normalize(recs, 1, 1, gap_threshold=10**14)
        msg = str(exc.value)
        assert "1000000000005 instants" in msg  # 10**12 + 1 for object 1, 4 for object 7
        assert "the %d normalize lays out" % MAX_INSTANTS in msg
        assert "object 1 has the longest, of 1000000000001 instants" in msg

    def test_many_segments_past_the_limit_named(self, monkeypatch):
        # each segment fits, their sum does not
        monkeypatch.setattr(trajindex.ingest, "MAX_INSTANTS", 10)
        recs = _records([(1, 0, 0, 0), (1, 5, 5, 0), (2, 0, 0, 0), (2, 6, 6, 0)])
        with pytest.raises(ValueError, match="13 instants, more than the 10 .* object 2 has"):
            normalize(recs, 1, 1)

    def test_segments_at_the_limit_kept(self, monkeypatch):
        monkeypatch.setattr(trajindex.ingest, "MAX_INSTANTS", 13)
        recs = _records([(1, 0, 0, 0), (1, 5, 5, 0), (2, 0, 0, 0), (2, 6, 6, 0)])
        got = normalize(recs, 1, 1)
        assert got == {1: [(0, [(i, 0) for i in range(6)])], 2: [(0, [(i, 0) for i in range(7)])]}
