"""Spiral codec: one non-negative integer per 2-D displacement.

Relative movements are mapped onto a clockwise square spiral centred on the
origin.  Code 0 is "stay"; ring r >= 1 holds the 8r cells whose Chebyshev
distance from the origin is exactly r, using codes (2r-1)^2 .. (2r+1)^2 - 1.
The ring starts one cell south of the north-east corner, at (r, r-1), and
walks south along x = r, then west along y = -r, then north along x = -r,
then east along y = r, finishing at the corner (r, r).

Both directions are closed-form: encode picks the ring from the Chebyshev
radius and the edge from which coordinate is pinned at +-r; decode recovers
the ring as ((isqrt(c)+1) // 2) and splits the ring offset into the four
edges.  Small displacements — the common case after discretization — get
small codes, which keeps the downstream integer alphabet dense.
"""

import math

import numpy as np


def encode(dx, dy):
    """Code of displacement (dx, dy)."""
    r = max(abs(dx), abs(dy))
    if r == 0:
        return 0
    base = (2 * r - 1) ** 2
    if dx == r and dy < r:  # east edge, heading south
        off = (r - 1) - dy
    elif dy == -r and dx < r:  # south edge, heading west
        off = (2 * r - 1) + (r - dx)
    elif dx == -r and dy > -r:  # west edge, heading north
        off = (4 * r - 1) + (dy + r)
    else:  # north edge, heading east (includes the (r, r) corner)
        off = (6 * r - 1) + (dx + r)
    return base + off


def decode(code):
    """Displacement (dx, dy) of a code."""
    if code < 0:
        raise ValueError("negative spiral code")
    if code == 0:
        return (0, 0)
    r = (math.isqrt(code) + 1) // 2
    off = code - (2 * r - 1) ** 2
    if off <= 2 * r - 1:
        return (r, r - 1 - off)
    if off <= 4 * r - 1:
        return (3 * r - 1 - off, -r)
    if off <= 6 * r - 1:
        return (-r, off - 5 * r + 1)
    return (off - 7 * r + 1, r)


def encode_array(dx, dy):
    """Vectorized encode over numpy arrays."""
    dx = np.asarray(dx, dtype=np.int64)
    dy = np.asarray(dy, dtype=np.int64)
    r = np.maximum(np.abs(dx), np.abs(dy))
    base = (2 * r - 1) ** 2
    east = (dx == r) & (dy < r)
    south = (dy == -r) & (dx < r)
    west = (dx == -r) & (dy > -r)
    off = np.where(
        east,
        (r - 1) - dy,
        np.where(
            south,
            (2 * r - 1) + (r - dx),
            np.where(west, (4 * r - 1) + (dy + r), (6 * r - 1) + (dx + r)),
        ),
    )
    return np.where(r == 0, 0, base + off)


def decode_array(codes):
    """Vectorized decode: (dx, dy) int64 arrays for non-negative codes
    below 2**63."""
    c = np.asarray(codes, dtype=np.uint64)
    # the float root is at most one off either way; uint64 holds the squares
    q = np.sqrt(c.astype(np.float64)).astype(np.uint64)
    q -= (q * q > c).astype(np.uint64)
    q += ((q + 1) * (q + 1) <= c).astype(np.uint64)
    r = ((q + 1) // 2).astype(np.int64)
    off = c.astype(np.int64) - (2 * r - 1) ** 2
    dx = np.where(
        off <= 2 * r - 1,
        r,
        np.where(
            off <= 4 * r - 1,
            3 * r - 1 - off,
            np.where(off <= 6 * r - 1, -r, off - 7 * r + 1),
        ),
    )
    dy = np.where(
        off <= 2 * r - 1,
        r - 1 - off,
        np.where(
            off <= 4 * r - 1, -r, np.where(off <= 6 * r - 1, off - 5 * r + 1, r)
        ),
    )
    zero = r == 0
    dx[zero] = dy[zero] = 0
    return dx, dy


def decode_table(max_code):
    """(dx, dy) int64 arrays for codes 0..max_code, for bulk lookups."""
    return decode_array(np.arange(max_code + 1))


def max_code_for_radius(r):
    """Largest code used by displacements with Chebyshev radius <= r."""
    return (2 * r + 1) ** 2 - 1
