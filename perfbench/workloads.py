"""Seeded inputs and query streams for the benchmark workloads.

Everything here depends only on the workload seed, never on the index: the
datasets are rendered as ``id,time,x,y`` CSV text (what ``trajindex build``
reads), and queries are drawn from the normalized series, so the program
under test receives nothing but the generated inputs.

Queries are drawn the same way on every workload: instants uniform over
[0, t_max]; regions with sides up to grid/4 (as ``trajindex verify`` draws
them); trajectory and interval windows up to one period long; kNN with
k in 1..10 around a uniform grid point.  Each parameter is drawn from its
own evenly spreading sequence (``_Spread``) rather than independently, which
keeps per-type medians of a short run close to those of a long one.
"""

import random

QUERY_TYPES = ("object", "trajectory", "slice", "interval", "knn")

# Spiral codes 1..8 are the eight unit moves, in the codec's clockwise order
# (east, south-east, south, ...).  Kept as data so the route generator does
# not depend on the program's codec.
_UNIT_MOVES = {
    1: (1, 0),
    2: (1, -1),
    3: (0, -1),
    4: (-1, -1),
    5: (-1, 0),
    6: (-1, 1),
    7: (0, 1),
    8: (1, 1),
}


def make_walk_series(seed, n_obj=60, t_len=900, side=512, appear=False):
    """Uniform random walks; with ``appear`` the objects go silent for
    stretches but keep drifting, so reappearance jumps stay plausible."""
    rng = random.Random(seed)
    series = {}
    for o in range(n_obj):
        x, y = rng.randrange(side), rng.randrange(side)
        segs = []
        t = 0
        while t < t_len:
            if appear and segs:
                off = rng.randrange(10, 80)
                for _ in range(off):
                    x = min(side - 1, max(0, x + rng.randrange(-2, 3)))
                    y = min(side - 1, max(0, y + rng.randrange(-2, 3)))
                t += off
                if t >= t_len:
                    break
            length = t_len if not appear else rng.randrange(60, 200)
            length = min(length, t_len - t)
            cells = []
            for _ in range(length):
                cells.append((x, y))
                x = min(side - 1, max(0, x + rng.randrange(-2, 3)))
                y = min(side - 1, max(0, y + rng.randrange(-2, 3)))
            segs.append((t, cells))
            t += length
            if not appear:
                break
        series[o] = segs
    return series


def _apply_codes(x, y, codes):
    cells = [(x, y)]
    for c in codes:
        dx, dy = _UNIT_MOVES[c]
        x += dx
        y += dy
        cells.append((x, y))
    return cells


def make_routes_series(seed, n_routes=5, per_route=20, legs=20, leg_len=50):
    """Objects sharing a few fixed routes (runs of one move code per leg):
    highly compressible, about 1e5 movement symbols at the default sizes."""
    rng = random.Random(seed)
    routes = []
    for _ in range(n_routes):
        codes = []
        for _leg in range(legs):
            codes.extend([rng.randrange(1, 9)] * leg_len)
        xs, ys = [0], [0]
        for c in codes:
            dx, dy = _UNIT_MOVES[c]
            xs.append(xs[-1] + dx)
            ys.append(ys[-1] + dy)
        routes.append((codes, 8 - min(xs), 8 - min(ys)))
    series = {}
    oid = 0
    for codes, ox, oy in routes:
        for _ in range(per_route):
            start = (ox + rng.randrange(4), oy + rng.randrange(4))
            series[oid] = [(0, _apply_codes(start[0], start[1], codes))]
            oid += 1
    return series


class Workload:
    def __init__(self, name, period, grid, make):
        self.name = name
        self.period = period
        self.grid = grid  # nominal grid side; widened to cover every cell
        self.make = make


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk-d720", 720, 512, make_walk_series),
        Workload("appear-d30", 30, 512, lambda seed: make_walk_series(seed, appear=True)),
        # Not listed in BENCHMARK.json: its latency tails follow each seed's
        # route geometry (over ten seeds the spread of knn_p50 and
        # slice_p95 is 0.3-0.4 of the median, above the largest bound a
        # metric may have), so it is run by name for per-layer analysis.
        Workload("routes-d120", 120, 1024, make_routes_series),
    )
}


def render_csv(series):
    """``id,time,x,y`` lines, one record per active instant."""
    lines = []
    for oid in sorted(series):
        for start, cells in series[oid]:
            for i, (x, y) in enumerate(cells):
                lines.append("%d,%d,%d,%d" % (oid, start + i, x, y))
    return "\n".join(lines) + "\n"


def grid_side(series, nominal):
    """The nominal grid side, doubled until it covers every cell."""
    top = max(
        (max(x, y) for segs in series.values() for _s, cells in segs for x, y in cells),
        default=0,
    )
    side = nominal
    while side <= top:
        side *= 2
    return side


class _Spread:
    """Uniform integers from a randomly shifted additive recurrence,
    x_i = frac(u + i * alpha): every value is uniform on its own, and any
    run of draws covers the range evenly, so a short run does not depend
    on where the seed happened to put its queries."""

    _ALPHAS = tuple(p ** 0.5 % 1.0 for p in (2, 3, 5, 7, 11, 13))

    def __init__(self, rng, dim):
        self.x = rng.random()
        self.alpha = self._ALPHAS[dim]

    def below(self, n):
        self.x = (self.x + self.alpha) % 1.0
        return int(self.x * n)


def _draws(rng, dims):
    return [_Spread(rng, d) for d in range(dims)]


def _region(draw, side):
    x1 = draw[0].below(side)
    y1 = draw[1].below(side)
    x2 = min(side - 1, x1 + draw[2].below(max(side // 4, 1)))
    y2 = min(side - 1, y1 + draw[3].below(max(side // 4, 1)))
    return (x1, y1, x2, y2)


def query_stream(seed, ids, t_max, side, period):
    """Endless seeded stream of (type, args): each round holds one query of
    every type, in shuffled order, so type counts never differ by more
    than one.  Each parameter of each type has its own ``_Spread``."""
    rng = random.Random(seed)
    order = list(QUERY_TYPES)
    obj, traj, sl, iv, nn = (_draws(rng, 6) for _ in QUERY_TYPES)
    n_t = t_max + 1
    while True:
        rng.shuffle(order)
        for qtype in order:
            if qtype == "object":
                yield qtype, (ids[obj[0].below(len(ids))], obj[1].below(n_t))
            elif qtype == "trajectory":
                t0 = traj[1].below(n_t)
                t1 = min(t_max, t0 + traj[2].below(period + 1))
                yield qtype, (ids[traj[0].below(len(ids))], t0, t1)
            elif qtype == "slice":
                yield qtype, (_region(sl, side), sl[4].below(n_t))
            elif qtype == "interval":
                t0 = iv[4].below(n_t)
                t1 = min(t_max, t0 + iv[5].below(period + 1))
                yield qtype, (_region(iv, side), t0, t1)
            else:
                point = (nn[1].below(side), nn[2].below(side))
                yield qtype, (1 + nn[0].below(10), point, nn[3].below(n_t))
