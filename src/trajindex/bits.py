"""Succinct building blocks: rank/select bit vectors, directly addressable
codes (DACs) and permutations.

All variable-length integer payloads (rule metadata, event side arrays,
compressed streams) are DAC-encoded, and a ``Permutation`` validates each
snapshot's id permutation as it is loaded.  A ``BitVector`` is the T:L of
a ``K2Tree``, the reference navigator a snapshot's decoded table is tested
against; neither saving nor loading builds one, so no index holds one.
``narrow`` gives an integer array the narrowest dtype that holds its range,
as the loaded index keeps its tables.

Conventions
-----------
* rank/select follow the classic 1-based prefix definition:
  ``rank1(p)`` counts ones among the first ``p`` bits (positions 1..p) and
  ``select1(j)`` returns the 1-based position of the j-th one, with
  ``select1(0) == 0``.  ``p`` may be 0..n.
* DAC sequences are plain 0-based sequences; chunks of the first level are
  the least significant bits, and ``to_list`` decodes them all at once
  into a uint64 array.
* Permutations are 0-based arrays; ``apply(i)`` is the forward mapping and
  ``inverse(j)`` reads the inverse array.

Bits are kept packed in a ``bytes`` object, eight to a byte and
little-endian (position p is bit (p-1) % 8 of byte (p-1) // 8), as the file
stores them.  The rank directory samples cumulative counts every 512 bits
in an ``array("I")``, a 6.25% overhead on the packed size, whose items read
as Python ints.  ``rank1`` adds to it the ``int.bit_count`` of the partial
superblock, read with ``int.from_bytes``; select bisects the directory and
then halves its superblock by popcounts.
``to_bytes`` hands out the packed bits themselves.
"""

import bisect
from array import array

import numpy as np

_SUPER = 512  # bits per rank-directory superblock

_NARROW = [
    (np.iinfo(t).min, np.iinfo(t).max, t)
    for t in (np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.uint64, np.int64)
]


def narrow(a):
    """Integer array ``a`` in the narrowest dtype that holds its range.

    Arithmetic on the result must widen first: numpy keeps the narrow dtype
    and wraps silently."""
    lo, hi = (int(a.min()), int(a.max())) if len(a) else (0, 0)
    return a.astype(next(t for t_lo, t_hi, t in _NARROW if t_lo <= lo and hi <= t_hi))


class BitVector:
    """Static bit sequence with O(1) rank and near-O(1) select."""

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        self._n = n = len(bits)
        nblocks = (n + _SUPER - 1) // _SUPER
        # counts[i] = number of ones in the first i superblocks
        counts = np.zeros(nblocks + 1, dtype=np.uint32)
        if n:
            # ones per superblock, summed with no widened copy of the bits
            whole = n - n % _SUPER
            ones = bits[:whole].reshape(-1, _SUPER).sum(axis=1, dtype=np.uint32)
            np.cumsum(ones, out=counts[1:len(ones) + 1])
            if whole < n:
                counts[-1] = counts[-2] + np.count_nonzero(bits[whole:])
        self._dir = array("I", counts.tobytes())
        self._nones = self._dir[-1]
        self._packed = np.packbits(bits, bitorder="little").tobytes()
        self._zdir = None  # zero-count directory, built by the first select0

    def __len__(self):
        return self._n

    @property
    def n_ones(self):
        return self._nones

    def bit(self, p):
        """Value of the bit at 1-based position p."""
        p -= 1
        return self._packed[p >> 3] >> (p & 7) & 1

    def rank1(self, p):
        """Number of ones among positions 1..p (p in 0..n)."""
        if p <= 0:
            return 0
        q, r = divmod(p, _SUPER)
        count = self._dir[q]
        if r:
            # the superblock starts on a byte; mask the bits past p
            data = self._packed[(p - r) >> 3:(p + 7) >> 3]
            count += (int.from_bytes(data, "little") & ((1 << r) - 1)).bit_count()
        return count

    def rank0(self, p):
        return max(p, 0) - self.rank1(p)

    def select1(self, j):
        """1-based position of the j-th one; select1(0) == 0."""
        return self._select(j, self._dir, 1)

    def select0(self, j):
        """1-based position of the j-th zero; select0(0) == 0."""
        if self._zdir is None:
            # zeros in the first i superblocks: i*SUPER (capped at n) - dir[i]
            n = self._n
            self._zdir = array("I", (min(i * _SUPER, n) - c for i, c in enumerate(self._dir)))
        return self._select(j, self._zdir, 0)

    def _select(self, j, counts, value):
        """Position of the j-th ``value`` bit; counts[i] counts them in the
        first i superblocks."""
        if j == 0:
            return 0
        if j < 0 or j > counts[-1]:
            raise ValueError("select%d argument out of range: %d" % (value, j))
        q = bisect.bisect_left(counts, j) - 1
        base = q * _SUPER
        # j-th overall is the (j - counts[q])-th inside this superblock
        k = j - counts[q]
        word = int.from_bytes(self._packed[base >> 3:(base + _SUPER) >> 3], "little")
        if not value:
            word ^= (1 << _SUPER) - 1  # the j-th zero lies before any padding
        # halve the superblock until one bit is left: the k-th one lies in
        # the low half when that half holds at least k ones
        pos, width = base, _SUPER
        while width > 1:
            width >>= 1
            low = word & ((1 << width) - 1)
            ones = low.bit_count()
            if ones < k:
                k -= ones
                word >>= width
                pos += width
            else:
                word = low
        return pos + 1

    def to_bytes(self):
        """The packed bits (the layout above), padded with zeros."""
        return self._packed


def _bitlen(values):
    """Bit length per value, counting value 0 as 1 bit."""
    values = np.asarray(values, dtype=np.uint64)
    out = np.zeros(len(values), dtype=np.int64)
    v = values.copy()
    while True:
        nz = v != 0
        if not nz.any():
            break
        out[nz] += 1
        v >>= np.uint64(1)
    return np.maximum(out, 1)


def optimal_chunk_widths(values):
    """Exact DP for the DAC level widths minimizing total bits.

    ``t[j]`` counts values longer than j bits.  Splitting the bit range at
    cumulative widths 0 = c0 < c1 < ... < cm = maxbits costs, per level,
    t[c_{l-1}] chunks of width (c_l - c_{l-1}) plus one continuation bit per
    chunk on every level except the last.  Ties prefer fewer levels.
    """
    values = np.asarray(values, dtype=np.uint64)
    if len(values) == 0:
        return [8]
    lens = _bitlen(values)
    maxbits = int(lens.max())
    # t[j] = how many values have bit length > j
    hist = np.bincount(lens, minlength=maxbits + 1)
    t = len(values) - np.cumsum(hist)
    best = [None] * (maxbits + 1)  # (cost, levels) from cut j to the end
    nxt = [None] * (maxbits + 1)
    best[maxbits] = (0, 0)
    for j in range(maxbits - 1, -1, -1):
        cand = None
        for c in range(j + 1, maxbits + 1):
            cost = int(t[j]) * (c - j) + (int(t[j]) if c < maxbits else 0)
            total = (cost + best[c][0], 1 + best[c][1])
            if cand is None or total < cand:
                cand = total
                nxt[j] = c
        best[j] = cand
    widths = []
    j = 0
    while j < maxbits:
        widths.append(nxt[j] - j)
        j = nxt[j]
    return widths


def fixed_chunk_widths(values, chunk_bits, max_levels):
    """Level widths for a fixed-chunk DAC capped at ``max_levels`` levels."""
    values = np.asarray(values, dtype=np.uint64)
    maxbits = int(_bitlen(values).max()) if len(values) else 1
    nlev = min(max_levels, (maxbits + chunk_bits - 1) // chunk_bits)
    nlev = max(nlev, 1)
    widths = [chunk_bits] * (nlev - 1)
    widths.append(max(chunk_bits, maxbits - chunk_bits * (nlev - 1)))
    return widths


def _dtype_for(width):
    if width <= 8:
        return np.uint8
    if width <= 16:
        return np.uint16
    if width <= 32:
        return np.uint32
    return np.uint64


class DacSequence:
    """Variable-length integer sequence, decoded whole.

    Values are split into per-level chunks; a continuation bitmap per level
    (absent on the last) marks values that extend further, and a level past
    every value's length stays empty.  ``to_list`` decodes whole levels and
    needs no rank.
    """

    def __init__(self, values, widths):
        values = np.asarray(values, dtype=np.uint64)
        self._n = len(values)
        self._widths = list(widths)
        self._levels = []  # chunk arrays, least significant level first
        self._cont = []  # continuation bits (uint8 0/1) per non-last level
        rem = values.copy()
        for li, w in enumerate(self._widths):
            mask = np.uint64((1 << w) - 1)
            chunk = (rem & mask).astype(_dtype_for(w))
            rem = rem >> np.uint64(w)
            self._levels.append(chunk)
            if li == len(self._widths) - 1:
                if (rem != 0).any():
                    raise ValueError("values do not fit the level widths")
            else:
                more = rem != 0
                self._cont.append(more.astype(np.uint8))
                rem = rem[more]

    @classmethod
    def optimal(cls, values):
        return cls(values, optimal_chunk_widths(values))

    @classmethod
    def fixed(cls, values, chunk_bits=8, max_levels=2):
        return cls(values, fixed_chunk_widths(values, chunk_bits, max_levels))

    @classmethod
    def from_parts(cls, n, widths, levels, conts):
        """Reassemble from serialized level arrays (no value re-encoding)."""
        obj = cls.__new__(cls)
        obj._n = n
        obj._widths = list(widths)
        obj._levels = levels
        obj._cont = conts
        return obj

    @property
    def parts(self):
        """(n, widths, level chunk arrays, continuation bit arrays)."""
        return self._n, list(self._widths), self._levels, self._cont

    def __len__(self):
        return self._n

    def to_list(self):
        """All values in order, as a new uint64 array (not a list), decoded
        one level at a time from the last.

        The values continued past level li are, in order, the chunks of
        level li+1, so no rank is needed.
        """
        values = self._levels[-1].astype(np.uint64)
        for li in range(len(self._cont) - 1, -1, -1):
            low = self._levels[li].astype(np.uint64)
            low[self._cont[li] == 1] |= values << np.uint64(self._widths[li])
            values = low
        return values

    def bit_size(self):
        """Total payload bits: chunks plus continuation bitmaps."""
        bits = 0
        for li, chunk in enumerate(self._levels):
            bits += len(chunk) * self._widths[li]
        for cont in self._cont:
            bits += len(cont)
        return bits


def pack_uint_array(values, width):
    """Pack unsigned ints of a fixed bit width into little-endian bytes."""
    values = np.asarray(values, dtype=np.uint64)
    if len(values) == 0:
        return b""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_uint_array(data, width, count):
    dtype = np.dtype(_dtype_for(width)).newbyteorder("<")
    if width == 8 * dtype.itemsize:  # byte-aligned: the bytes are the integers
        return np.frombuffer(data, dtype=dtype, count=count).astype(np.uint64)
    # each value's bits padded to a whole little-endian integer: one byte
    # per bit of that integer, not eight per bit of the value
    bits = np.zeros((count, 8 * dtype.itemsize), dtype=np.uint8)
    bits[:, :width] = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=width * count, bitorder="little"
    ).reshape(count, width)
    return np.packbits(bits, axis=1, bitorder="little").view(dtype)[:, 0].astype(np.uint64)


class Permutation:
    """Permutation of 0..n-1 held as its forward and inverse arrays."""

    def __init__(self, values):
        perm = np.asarray(values, dtype=np.int64)
        n = len(perm)
        if n and (np.sort(perm) != np.arange(n)).any():
            raise ValueError("not a permutation of 0..n-1")
        self._perm = perm
        self._inv = np.empty(n, dtype=np.int64)
        self._inv[perm] = np.arange(n)

    @property
    def raw(self):
        return self._perm

    def apply(self, i):
        return int(self._perm[i])

    def inverse(self, j):
        """The i with apply(i) == j."""
        return int(self._inv[j])
