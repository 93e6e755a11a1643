"""Plain-tuple geometry over integer cell grids.

A region is (x1, y1, x2, y2) with inclusive bounds and x1 <= x2, y1 <= y2.
Points are (x, y) cell coordinates.  Distances are Euclidean in cell units;
the distance from a point to a region is the distance to the nearest cell
of the region (0 when the point lies inside).
"""

import math


def clip_region(region, side):
    """Clamp a region to the grid [0, side-1]^2; None when nothing is left."""
    x1, y1, x2, y2 = region
    x1, y1 = max(x1, 0), max(y1, 0)
    x2, y2 = min(x2, side - 1), min(y2, side - 1)
    if x1 > x2 or y1 > y2:
        return None
    return (x1, y1, x2, y2)


def expand_region(region, delta, side):
    """Grow a region by delta cells on every side, clamped to the grid."""
    x1, y1, x2, y2 = region
    return (
        max(x1 - delta, 0),
        max(y1 - delta, 0),
        min(x2 + delta, side - 1),
        min(y2 + delta, side - 1),
    )


def expanded_region(region, t_begin, t_end, max_speed, side):
    """Region reachable-from/into ``region`` across [t_begin, t_end]."""
    return expand_region(region, max_speed * (t_end - t_begin), side)


def contains(region, x, y):
    x1, y1, x2, y2 = region
    return x1 <= x <= x2 and y1 <= y <= y2


def region_in_region(inner, outer):
    return (
        outer[0] <= inner[0]
        and outer[1] <= inner[1]
        and inner[2] <= outer[2]
        and inner[3] <= outer[3]
    )


def regions_intersect(a, b):
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def dist_point_point(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def dist_point_region(p, region):
    x, y = p
    x1, y1, x2, y2 = region
    dx = max(x1 - x, 0, x - x2)
    dy = max(y1 - y, 0, y - y2)
    return math.hypot(dx, dy)
