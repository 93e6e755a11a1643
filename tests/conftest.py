"""Shared fixtures: the hand-checked walkthrough scenario plus synthetic
datasets (uniform walks, shared routes, appear/disappear walks) used by the
oracle-equivalence and compression tests, and a deadline for code that
must not hang."""

import contextlib
import random
import signal

import pytest
from hypothesis import HealthCheck, settings

from trajindex import Oracle, TrajectoryIndex
from trajindex.spiral import decode

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _on_alarm(signum, frame):
    raise TimeoutError("hung for more than the deadline")


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# walkthrough scenario: 7 objects, 16x16 grid, instants 0..16, snapshots at
# 0/8/16 (period 8).  Small enough to verify every answer by hand.
# ---------------------------------------------------------------------------

WALKTHROUGH_SERIES = {
    1: [(0, [(9, 5)] * 9 + [(9, 6)] + [(9, 7)] * 7)],
    2: [(0, [(10, 3)] * 9 + [(9, 3)] + [(9, 4)] * 7)],
    3: [(0, [(7, 9)] * 6), (12, [(4, 8)] * 5)],
    4: [(0, [(4, 3)] * 17)],
    5: [
        (0, [(7, 1)] * 4),
        (9, [(7, 2), (7, 3), (7, 4), (7, 5), (7, 6), (7, 7), (7, 8), (7, 9)]),
    ],
    6: [(0, [(10, 13), (10, 14), (10, 15), (10, 15), (10, 15)]), (12, [(6, 9)] * 5)],
    7: [(11, [(12, 1)] * 6)],
}


@pytest.fixture(scope="session")
def walkthrough_series():
    return WALKTHROUGH_SERIES


@pytest.fixture(scope="session")
def walkthrough_index():
    return TrajectoryIndex.build(WALKTHROUGH_SERIES, period=8, k=2, side=16)


@pytest.fixture(scope="session")
def walkthrough_oracle():
    return Oracle(WALKTHROUGH_SERIES)


# ---------------------------------------------------------------------------
# appearance scenario for log-structure tests: object 5 appears mid-portion,
# takes two moves whose pair also occurs in a companion log (so Re-Pair
# forms a rule covering them), then stops emitting.
# ---------------------------------------------------------------------------


def _apply_codes(x, y, codes):
    cells = [(x, y)]
    for c in codes:
        dx, dy = decode(c)
        x += dx
        y += dy
        cells.append((x, y))
    return cells


@pytest.fixture(scope="session")
def appearance_series():
    companion = _apply_codes(20, 20, [7, 8] * 4)  # instants 8..16
    return {
        5: [(11, _apply_codes(7, 2, [7, 8]))],  # instants 11..13
        9: [(0, [(20, 20)] * 8 + companion)],  # instants 0..16
    }


@pytest.fixture(scope="session")
def appearance_index(appearance_series):
    return TrajectoryIndex.build(appearance_series, period=8, k=2, side=32)


# ---------------------------------------------------------------------------
# synthetic datasets
# ---------------------------------------------------------------------------


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


def make_routes_series(seed=42, n_routes=5, per_route=20, legs=20, leg_len=50):
    """Objects sharing 5 fixed routes (runs of one move code per leg) —
    highly compressible, >= 1e5 movement symbols at the default sizes."""
    rng = random.Random(seed)
    routes = []
    for _ in range(n_routes):
        codes = []
        for _leg in range(legs):
            codes.extend([rng.randrange(1, 9)] * leg_len)
        xs, ys = [0], [0]
        for c in codes:
            dx, dy = decode(c)
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


DATASETS = {
    "random": lambda: make_walk_series(1),
    "routes": make_routes_series,
    "appear": lambda: make_walk_series(2, appear=True),
}

DATASET_SIDE = {"random": 512, "routes": 1024, "appear": 512}
PERIODS = (30, 120, 720)


@pytest.fixture(scope="session")
def datasets():
    return {name: fn() for name, fn in DATASETS.items()}


@pytest.fixture(scope="session")
def oracles(datasets):
    return {name: Oracle(series) for name, series in datasets.items()}


@pytest.fixture(scope="session")
def indexes(datasets):
    """All (dataset, period) index builds used by the acceptance tests."""
    out = {}
    for name, series in datasets.items():
        for period in PERIODS:
            out[name, period] = TrajectoryIndex.build(
                series, period=period, k=2, side=DATASET_SIDE[name]
            )
    return out
