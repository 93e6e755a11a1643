"""Raw GPS records -> regular per-instant cell positions.

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
timestamps.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class RawRecord(NamedTuple):
    oid: int
    t: float
    x: float
    y: float


def parse_csv(text, has_header=False):
    """Parse ``id,time,x,y`` lines into records, in input order; a
    non-numeric or non-finite field fails with its line number."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in text]
    records = []
    start = 1 if has_header else 0
    for no, line in enumerate(lines[start:], start + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError("line %d: expected 4 fields, got %d" % (no, len(parts)))
        try:
            rec = RawRecord(int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError:
            raise ValueError("line %d: non-numeric field in %r" % (no, line)) from None
        if not all(map(math.isfinite, rec[1:])):
            raise ValueError("line %d: non-finite field in %r" % (no, line))
        records.append(rec)
    return records


def parse_binary(data):
    """Parse the packed format: 4 header bytes give the byte width of the
    id, time, x and y columns; rows are fixed-width little-endian unsigned
    integers."""
    if len(data) < 4:
        raise ValueError("truncated input: missing 4-byte width header")
    widths = list(data[:4])
    if any(w < 1 or w > 8 for w in widths):
        raise ValueError("invalid column width in header: %r" % (widths,))
    row_size = sum(widths)
    body = data[4:]
    if len(body) % row_size:
        raise ValueError(
            "truncated row at offset %d (row size %d)"
            % (4 + len(body) - len(body) % row_size, row_size)
        )
    records = []
    pos = 0
    while pos < len(body):
        fields = []
        for w in widths:
            fields.append(int.from_bytes(body[pos : pos + w], "little"))
            pos += w
        records.append(RawRecord(fields[0], fields[1], fields[2], fields[3]))
    return records


def normalize(records, cell_size, time_step, speed_cap=None, gap_threshold=15):
    """Regularize records into {id: [(start instant, [(x, y), ...]), ...]}.

    ``speed_cap`` is in raw units per raw time unit (None disables the
    filter); ``gap_threshold`` is in time steps and must be at least 2.
    Objects whose records are all filtered out are omitted.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    if time_step <= 0:
        raise ValueError("time_step must be positive")
    if gap_threshold < 2:
        raise ValueError("gap_threshold must be at least 2")
    by_object = {}
    for rec in records:
        by_object.setdefault(rec.oid, []).append(rec)
    out = {}
    for oid in sorted(by_object):
        recs = sorted(by_object[oid], key=lambda rec: rec.t)
        if recs[0].t < 0:
            raise ValueError("object %r: negative timestamp %r" % (oid, recs[0].t))
        kept = [recs[0]]
        for rec in recs[1:]:
            prev = kept[-1]
            if rec.t == prev.t:
                continue  # duplicate timestamp: first wins
            if speed_cap is not None:
                dist = math.hypot(rec.x - prev.x, rec.y - prev.y)
                if dist / (rec.t - prev.t) > speed_cap:
                    continue
            kept.append(rec)
        segments = []
        seg = [kept[0]]
        for rec in kept[1:]:
            if rec.t - seg[-1].t >= gap_threshold * time_step:
                segments.append(seg)
                seg = [rec]
            else:
                seg.append(rec)
        segments.append(seg)
        built = []
        prev_end = -1
        for seg in segments:
            i_first = int(math.floor(seg[0].t / time_step + 0.5))
            i_last = int(math.floor(seg[-1].t / time_step + 0.5))
            start = max(i_first, prev_end + 1)
            if start > i_last:
                continue
            cells = []
            j = 0
            for inst in range(start, i_last + 1):
                tau = min(max(inst * time_step, seg[0].t), seg[-1].t)
                while j + 1 < len(seg) and seg[j + 1].t < tau:
                    j += 1
                a = seg[j]
                b = seg[j + 1] if j + 1 < len(seg) else seg[j]
                if b.t > a.t:
                    frac = (tau - a.t) / (b.t - a.t)
                else:
                    frac = 0.0
                cx = a.x + frac * (b.x - a.x)
                cy = a.y + frac * (b.y - a.y)
                cells.append(
                    (int(math.floor(cx / cell_size)), int(math.floor(cy / cell_size)))
                )
            built.append((start, cells))
            prev_end = i_last
        if built:
            out[oid] = built
    return out
