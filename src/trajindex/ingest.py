"""Raw GPS records -> regular per-instant cell positions.

The parsers return the records column-wise, in input order (``Records``:
``oid`` int64, ``t``, ``x``, ``y`` float64), and every stage below works a
column at a time.

Raw input is noisy: unsorted, duplicated, with dropouts and the occasional
impossible jump.  ``normalize`` turns each object's records into clean
segments on a regular time grid:

1. stable-sort by timestamp, dropping exact duplicates (first one wins);
2. greedily delete records implying a speed above the cap, measured
   against the last record kept;
3. split into segments wherever the raw gap reaches the threshold
   (in units of the time step) — the object disappears and reappears;
4. within a segment, take one position per grid instant by linear
   interpolation in continuous coordinates, then discretize to cells
   (floor of coordinate / cell size).

Interpolating before flooring avoids stair-step drift; a segment's first
and last instants are the nearest grid points to its first and last raw
timestamps.  Only step 2 visits records one by one, as each is tested
against the last one kept.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_ID_RANGE = "0..2^63-1"
_INT64_END = float(2**63)  # the first float past int64
# the most instants ``normalize`` lays out over all segments: each costs
# about a hundred bytes of arrays and Python tuples, so this is some GB
MAX_INSTANTS = 1 << 24


class InstantLimitError(ValueError):
    """The segments would span more than ``MAX_INSTANTS`` instants."""


class Records(NamedTuple):
    """Raw records column-wise: ``oid`` int64 and ``t``, ``x``, ``y``
    float64 arrays of one length."""

    oid: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray


def parse_csv(text, has_header=False):
    """Parse ``id,time,x,y`` lines into ``Records``, in input order; blank
    lines are skipped.  Ids are read with ``int`` and must lie in
    0..2^63-1; the other fields are read with ``float`` and must be finite.
    A bad line fails with its line number."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in text]
    start = 1 if has_header else 0
    rows = [ln for ln in lines[start:] if ln and not ln.isspace()]
    try:
        return _csv_columns(rows)
    except (ValueError, OverflowError):  # some row is bad, or holds a "\n"
        return _csv_lines(lines, start)


def _csv_columns(rows):
    """The columns of the non-blank lines ``rows``, in a few calls per
    column; ValueError or OverflowError if any row is not a valid record."""
    n = len(rows)
    # rows joined by a lone "\n" field: a row without exactly four fields
    # moves every separator after it
    body = ",\n,".join(rows)
    fields = body.split(",")
    seps = body.count("\n")
    if seps != n - 1 or len(fields) != 5 * n - 1 or fields[4::5].count("\n") != seps:
        raise ValueError("field count")
    oid = np.fromiter(map(int, fields[0::5]), np.int64, n)
    t, x, y = (np.fromiter(map(float, fields[c::5]), np.float64, n) for c in (1, 2, 3))
    if oid.min() < 0 or not all(np.isfinite(col).all() for col in (t, x, y)):
        raise ValueError("field range")
    return Records(oid, t, x, y)


def _csv_lines(lines, start):
    """``parse_csv`` a line at a time, failing at the first bad line."""
    recs = []
    for no, line in enumerate(lines[start:], start + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError("line %d: expected 4 fields, got %d" % (no, len(parts)))
        try:
            rec = (int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError:
            raise ValueError("line %d: non-numeric field in %r" % (no, line)) from None
        if not all(map(math.isfinite, rec[1:])):
            raise ValueError("line %d: non-finite field in %r" % (no, line))
        if not 0 <= rec[0] < 2**63:
            raise ValueError("line %d: object id %d outside %s" % (no, rec[0], _ID_RANGE))
        recs.append(rec)
    oid, t, x, y = zip(*recs) if recs else ((),) * 4
    return Records(np.array(oid, dtype=np.int64), *(np.array(c, dtype=float) for c in (t, x, y)))


def parse_binary(data):
    """Parse the packed format: 4 header bytes give the byte width of the
    id, time, x and y columns; rows are fixed-width little-endian unsigned
    integers.  Ids must lie in 0..2^63-1; times and coordinates are read as
    float64, so values above 2^53 round."""
    if len(data) < 4:
        raise ValueError("truncated input: missing 4-byte width header")
    widths = list(data[:4])
    if any(w < 1 or w > 8 for w in widths):
        raise ValueError("invalid column width in header: %r" % (widths,))
    row_size = sum(widths)
    body = np.frombuffer(data, dtype=np.uint8, offset=4)
    if len(body) % row_size:
        raise ValueError(
            "truncated row at offset %d (row size %d)"
            % (4 + len(body) - len(body) % row_size, row_size)
        )
    rows = body.reshape(-1, row_size)
    cols = []
    off = 0
    for w in widths:
        wide = np.zeros((len(rows), 8), dtype=np.uint8)
        wide[:, :w] = rows[:, off : off + w]
        cols.append(wide.view("<u8").ravel())
        off += w
    oid = cols[0]
    bad = np.flatnonzero(oid >= 2**63)
    if len(bad):
        raise ValueError(
            "row %d: object id %d outside %s" % (bad[0], int(oid[bad[0]]), _ID_RANGE)
        )
    return Records(oid.astype(np.int64), *(c.astype(np.float64) for c in cols[1:]))


def normalize(records, cell_size, time_step, speed_cap=None, gap_threshold=15):
    """Regularize ``Records`` into {id: [(start instant, [(x, y), ...]), ...]}.

    ``speed_cap`` is in raw units per raw time unit (None disables the
    filter); ``gap_threshold`` is in time steps and must be at least 2.
    Instants and cells must fit int64, and the segments may span at most
    ``MAX_INSTANTS`` instants in all (``InstantLimitError`` otherwise).
    """
    if not 0 < cell_size < math.inf:
        raise ValueError("cell_size must be positive and finite, not %r" % (cell_size,))
    if not 0 < time_step < math.inf:
        raise ValueError("time_step must be positive and finite, not %r" % (time_step,))
    if speed_cap is not None and not math.isfinite(speed_cap):
        raise ValueError("speed_cap must be finite, not %r" % (speed_cap,))
    if not gap_threshold >= 2:
        raise ValueError("gap_threshold must be at least 2, not %r" % (gap_threshold,))
    try:
        gap = float(gap_threshold) * float(time_step)
    except OverflowError:  # an int beyond float range
        raise ValueError("gap_threshold must be within float range") from None
    cell_size, time_step = float(cell_size), float(time_step)
    oid = np.asarray(records.oid, dtype=np.int64)
    t, x, y = (np.asarray(c, dtype=np.float64) for c in (records.t, records.x, records.y))
    if not len(oid) == len(t) == len(x) == len(y):
        raise ValueError("record columns differ in length")
    if not len(oid):
        return {}
    order = np.lexsort((t, oid))  # stable: equal timestamps keep input order
    oid, t, x, y = oid[order], t[order], x[order], y[order]
    first = np.ones(len(oid), dtype=bool)  # an object's first record: its earliest
    first[1:] = oid[1:] != oid[:-1]
    for col in (t, x, y):
        bad = ~np.isfinite(col)
        if bad.any():
            raise ValueError("object %d: non-finite time or coordinate" % oid[np.argmax(bad)])
    neg = first & (t < 0)
    if neg.any():
        i = int(np.argmax(neg))
        raise ValueError("object %r: negative timestamp %r" % (int(oid[i]), float(t[i])))

    if speed_cap is None:
        keep = first.copy()
        keep[1:] |= t[1:] != t[:-1]  # duplicate timestamp: first wins
    else:
        keep = _under_cap(first, t, x, y, speed_cap)
    oid, t, x, y, first = oid[keep], t[keep], x[keep], y[keep], first[keep]

    # segments: each object's records, cut where the raw gap reaches the threshold
    cut = first.copy()
    cut[1:] |= t[1:] - t[:-1] >= gap
    s0 = np.flatnonzero(cut)
    s1 = np.append(s0[1:], len(t))  # exclusive ends
    owner = oid[s0]
    i_first = _int64(np.floor(t[s0] / time_step + 0.5), owner)
    i_last = _int64(np.floor(t[s1 - 1] / time_step + 0.5), owner)
    # an instant already covered by the previous segment starts none anew
    prev_end = np.where(first[s0], -1, np.append(-1, i_last[:-1]))
    start = np.maximum(i_first, prev_end + 1)
    count = np.maximum(i_last - start + 1, 0)
    if count.max() > MAX_INSTANTS or count.sum() > MAX_INSTANTS:  # the sum fits int64 then
        longest = int(np.argmax(count))
        raise InstantLimitError(
            "the segments span %d instants, more than the %d normalize lays out; "
            "object %d has the longest, of %d instants"
            % (sum(count.tolist()), MAX_INSTANTS, owner[longest], count[longest])
        )

    # one row per output instant: its segment g and clamped raw time tau
    g = np.repeat(np.arange(len(s0)), count)
    inst = np.arange(len(g)) - np.repeat(np.cumsum(count) - count, count) + start[g]
    tau = np.minimum(np.maximum(inst * time_step, t[s0][g]), t[s1 - 1][g])
    # a = the last record of the segment before tau (else its first), b = the next
    a = np.maximum(_searchsorted_within(cut, t, g, tau) - 1, s0[g])
    b = np.minimum(a + 1, s1[g] - 1)
    span = t[b] - t[a]
    frac = np.zeros(len(g))
    moving = span > 0
    frac[moving] = (tau[moving] - t[a][moving]) / span[moving]
    cx = _int64(np.floor((x[a] + frac * (x[b] - x[a])) / cell_size), owner[g])
    cy = _int64(np.floor((y[a] + frac * (y[b] - y[a])) / cell_size), owner[g])

    xs, ys = cx.tolist(), cy.tolist()
    out = {}
    pos = 0
    for o, st, c in zip(owner.tolist(), start.tolist(), count.tolist()):
        if c:
            out.setdefault(o, []).append((st, list(zip(xs[pos : pos + c], ys[pos : pos + c]))))
            pos += c
    return out


def _under_cap(first, t, x, y, cap):
    """Mask of the records kept by the greedy speed filter: each is tested
    against the last kept record of its object, which a duplicate timestamp
    of that record never replaces."""
    keep = np.zeros(len(t), dtype=bool)
    pt = px = py = 0.0
    for i, (new, ti, xi, yi) in enumerate(zip(first.tolist(), t.tolist(), x.tolist(), y.tolist())):
        if not new:
            if ti == pt:
                continue
            if math.hypot(xi - px, yi - py) / (ti - pt) > cap:
                continue
        keep[i] = True
        pt, px, py = ti, xi, yi
    return keep


def _int64(values, owners):
    """``values`` (whole floats) as int64, or ValueError naming the owner of
    the first one outside int64."""
    bad = ~((values >= -_INT64_END) & (values < _INT64_END))
    if bad.any():
        raise ValueError(
            "object %d: instant or cell coordinate outside int64" % owners[np.argmax(bad)]
        )
    return values.astype(np.int64)


def _searchsorted_within(cut, t, g, tau):
    """For each (segment g, time tau), the index of the first record of
    segment g at or after tau (``searchsorted`` left within the segment).

    Records are sorted by (segment, t); both keys become one int64 by
    ranking every time among all times."""
    grid = np.unique(np.concatenate((t, tau)))
    seg_of = np.cumsum(cut) - 1
    width = len(grid)
    keys = seg_of * width + np.searchsorted(grid, t)
    return np.searchsorted(keys, g * width + np.searchsorted(grid, tau))
