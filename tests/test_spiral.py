import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajindex import spiral


def spiral_walk():
    """Independent reference: literally walk the square spiral."""
    yield (0, 0)
    r = 0
    x = y = 0
    while True:
        r += 1
        x += 1
        yield (x, y)
        while y > -r:
            y -= 1
            yield (x, y)
        while x > -r:
            x -= 1
            yield (x, y)
        while y < r:
            y += 1
            yield (x, y)
        while x < r:
            x += 1
            yield (x, y)


def test_known_codes():
    assert spiral.encode(0, 0) == 0
    assert spiral.encode(1, 1) == 8
    assert spiral.encode(0, 3) == 45
    assert spiral.encode(2, 1) == 9


def test_known_decodes():
    d4, d5 = spiral.decode(4), spiral.decode(5)
    assert (d4[0] + d5[0], d4[1] + d5[1]) == (-2, -1)
    d2, d9 = spiral.decode(2), spiral.decode(9)
    assert (d2[0] + d9[0], d2[1] + d9[1]) == (3, 0)


def test_against_walk_reference():
    walk = spiral_walk()
    for code in range(200):
        expected = next(walk)
        assert spiral.decode(code) == expected
        assert spiral.encode(*expected) == code


def test_negative_code_rejected():
    with pytest.raises(ValueError):
        spiral.decode(-1)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_encode_decode_round_trip(dx, dy):
    assert spiral.decode(spiral.encode(dx, dy)) == (dx, dy)


@given(st.integers(0, 30000))
def test_decode_encode_round_trip(code):
    assert spiral.encode(*spiral.decode(code)) == code


def test_ring_boundaries():
    # ring r occupies codes (2r-1)^2 .. (2r+1)^2 - 1
    for r in (1, 2, 3, 10, 100):
        first, last = (2 * r - 1) ** 2, (2 * r + 1) ** 2 - 1
        assert max(map(abs, spiral.decode(first))) == r
        assert max(map(abs, spiral.decode(last))) == r
        assert max(map(abs, spiral.decode(last + 1))) == r + 1


def test_max_code_for_radius():
    for r in (0, 1, 5):
        code = spiral.max_code_for_radius(r)
        assert max(map(abs, spiral.decode(code))) == r
        assert max(map(abs, spiral.decode(code + 1))) == r + 1


def test_encode_array_matches_scalar():
    rng = np.random.default_rng(3)
    dx = rng.integers(-25, 26, size=500)
    dy = rng.integers(-25, 26, size=500)
    codes = spiral.encode_array(dx, dy)
    for i in range(len(dx)):
        assert codes[i] == spiral.encode(int(dx[i]), int(dy[i]))


def test_decode_table():
    tx, ty = spiral.decode_table(120)
    for c in range(121):
        assert (int(tx[c]), int(ty[c])) == spiral.decode(c)


def test_decode_array_matches_scalar_up_to_int64():
    # the float root is off by one next to perfect squares of large codes
    rng = np.random.default_rng(4)
    roots = rng.integers(1, 3_037_000_499, size=200)
    codes = np.concatenate([
        rng.integers(0, 2**63 - 1, size=500),
        roots**2, roots**2 - 1, [2**63 - 1, 0],
    ])
    dx, dy = spiral.decode_array(codes)
    for c, x, y in zip(codes.tolist(), dx.tolist(), dy.tolist()):
        assert (x, y) == spiral.decode(c), c
