"""Succinct building blocks: rank/select bit vectors, directly addressable
codes (DACs) and permutations with sampled inverse shortcuts.

These three structures carry every other component of the package: the
k2-tree is two bit vectors navigated with rank/select, the snapshots group
object identifiers with a bitmap and a permutation, and all variable-length
integer payloads (rule metadata, event side arrays, compressed streams) are
DAC-encoded.

Conventions
-----------
* rank/select follow the classic 1-based prefix definition:
  ``rank1(p)`` counts ones among the first ``p`` bits (positions 1..p) and
  ``select1(j)`` returns the 1-based position of the j-th one, with
  ``select1(0) == 0``.  ``p`` may be 0..n.
* DAC sequences are plain 0-based sequences (``access(i)`` returns the i-th
  stored value); chunks of the first level are the least significant bits.
* Permutations are 0-based arrays; ``apply(i)`` is the forward mapping and
  ``inverse(j)`` walks the cycle, using one sampled shortcut per query.

Bits are kept unpacked (one byte per bit) in memory for fast numpy
counting; serialized forms are bit-packed little-endian.  The rank
directory samples cumulative counts every 512 bits (uint32), a 6.25%
overhead on the packed size.
"""

import numpy as np

_SUPER = 512  # bits per rank-directory superblock


class BitVector:
    """Static bit sequence with O(1) rank and near-O(1) select."""

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        self._bits = bits
        n = len(bits)
        nblocks = (n + _SUPER - 1) // _SUPER
        # _dir[i] = number of ones in the first i superblocks
        self._dir = np.zeros(nblocks + 1, dtype=np.uint32)
        if n:
            ones = np.add.reduceat(bits.astype(np.int64), np.arange(0, n, _SUPER))
            np.cumsum(ones, out=self._dir[1:])
        self._nones = int(self._dir[-1]) if n else 0

    def __len__(self):
        return len(self._bits)

    @property
    def n_ones(self):
        return self._nones

    @property
    def n_zeros(self):
        return len(self._bits) - self._nones

    def bit(self, p):
        """Value of the bit at 1-based position p."""
        return int(self._bits[p - 1])

    def rank1(self, p):
        """Number of ones among positions 1..p (p in 0..n)."""
        if p <= 0:
            return 0
        q, r = divmod(p, _SUPER)
        count = int(self._dir[q])
        if r:
            base = q * _SUPER
            count += int(np.count_nonzero(self._bits[base:base + r]))
        return count

    def rank0(self, p):
        return max(p, 0) - self.rank1(p)

    def select1(self, j):
        """1-based position of the j-th one; select1(0) == 0."""
        if j == 0:
            return 0
        if j < 0 or j > self._nones:
            raise ValueError("select1 argument out of range: %d" % j)
        q = int(np.searchsorted(self._dir, j, side="left")) - 1
        base = q * _SUPER
        block = self._bits[base:base + _SUPER]
        # j-th one overall is the (j - dir[q])-th one inside this block
        k = j - int(self._dir[q])
        idx = np.flatnonzero(block)[k - 1]
        return base + int(idx) + 1

    def select0(self, j):
        """1-based position of the j-th zero; select0(0) == 0."""
        if j == 0:
            return 0
        nzeros = len(self._bits) - self._nones
        if j < 0 or j > nzeros:
            raise ValueError("select0 argument out of range: %d" % j)
        # directory of zero counts is implicit: zeros(i) = i*SUPER - dir[i]
        zeros_per_block = (
            np.minimum(
                np.arange(len(self._dir), dtype=np.int64) * _SUPER, len(self._bits)
            )
            - self._dir
        )
        q = int(np.searchsorted(zeros_per_block, j, side="left")) - 1
        base = q * _SUPER
        block = self._bits[base:base + _SUPER]
        k = j - int(zeros_per_block[q])
        idx = np.flatnonzero(block == 0)[k - 1]
        return base + int(idx) + 1

    # -- raw access for internal users ------------------------------------

    @property
    def raw(self):
        """Underlying uint8 array (0-based).  Read-only by convention."""
        return self._bits

    def to_bytes(self):
        return np.packbits(self._bits, bitorder="little").tobytes()

    @classmethod
    def from_bytes(cls, data, n):
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8), count=n, bitorder="little"
        )
        return cls(bits)


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
    """Variable-length integer sequence with random access.

    Values are split into per-level chunks; a continuation bitmap per level
    (absent on the last) marks values that extend further.  ``access(i)``
    costs one rank per traversed level.
    """

    def __init__(self, values, widths):
        values = np.asarray(values, dtype=np.uint64)
        self._n = len(values)
        self._widths = list(widths)
        self._levels = []  # chunk arrays, least significant level first
        self._cont = []  # continuation BitVector per non-last level
        rem = values.copy()
        for li, w in enumerate(self._widths):
            mask = np.uint64((1 << w) - 1)
            chunk = (rem & mask).astype(_dtype_for(w))
            rem = rem >> np.uint64(w)
            last = li == len(self._widths) - 1
            if last:
                if len(rem) and (rem != 0).any():
                    raise ValueError("values do not fit the level widths")
                self._levels.append(chunk)
            else:
                more = rem != 0
                self._levels.append(chunk)
                self._cont.append(BitVector(more.astype(np.uint8)))
                rem = rem[more]
                if len(rem) == 0:
                    # trailing configured levels stay empty
                    for w2 in self._widths[li + 1:-1]:
                        self._levels.append(np.zeros(0, dtype=_dtype_for(w2)))
                        self._cont.append(BitVector(np.zeros(0, dtype=np.uint8)))
                    self._levels.append(
                        np.zeros(0, dtype=_dtype_for(self._widths[-1]))
                    )
                    break

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
        """(n, widths, level chunk arrays, continuation bitmaps)."""
        return self._n, list(self._widths), self._levels, self._cont

    def __len__(self):
        return self._n

    @property
    def n_levels(self):
        return len(self._levels)

    def access(self, i):
        """Value at 0-based index i."""
        if i < 0 or i >= self._n:
            raise IndexError(i)
        value = 0
        shift = 0
        for li in range(len(self._levels)):
            value |= int(self._levels[li][i]) << shift
            if li == len(self._cont):
                break
            cont = self._cont[li]
            if not cont.bit(i + 1):
                break
            shift += self._widths[li]
            i = cont.rank1(i + 1) - 1
        return value

    def to_list(self):
        return [self.access(i) for i in range(self._n)]

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
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=width * count, bitorder="little"
    ).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return (bits.reshape(count, width) << shifts).sum(axis=1, dtype=np.uint64)


class Permutation:
    """Permutation with inverse queries via sampled cycle shortcuts.

    Every cycle of length >= sample_rate gets a back-pointer at every
    sample_rate-th element of its walk, so ``inverse`` follows at most about
    2*sample_rate forward steps.  Shorter cycles are resolved by walking
    alone.
    """

    def __init__(self, values, sample_rate=5):
        perm = np.asarray(values, dtype=np.int64)
        n = len(perm)
        if n and (np.sort(perm) != np.arange(n)).any():
            raise ValueError("not a permutation of 0..n-1")
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        self._perm = perm
        self._t = sample_rate
        marks = np.zeros(n, dtype=np.uint8)
        shortcuts = {}
        seen = np.zeros(n, dtype=bool)
        for start in range(n):
            if seen[start]:
                continue
            cycle = []
            i = start
            while not seen[i]:
                seen[i] = True
                cycle.append(i)
                i = int(perm[i])
            L = len(cycle)
            if L >= sample_rate:
                for off in range(0, L, sample_rate):
                    marks[cycle[off]] = 1
                    shortcuts[cycle[off]] = cycle[(off - sample_rate) % L]
        self._marks = BitVector(marks)
        sp = np.zeros(self._marks.n_ones, dtype=np.int64)
        for pos, target in shortcuts.items():
            sp[self._marks.rank1(pos + 1) - 1] = target
        self._sp = sp

    def __len__(self):
        return len(self._perm)

    @property
    def sample_rate(self):
        return self._t

    @property
    def raw(self):
        return self._perm

    def apply(self, i):
        return int(self._perm[i])

    def inverse(self, j):
        """The i with apply(i) == j."""
        perm = self._perm
        i = j
        jumped = False
        while True:
            if int(perm[i]) == j:
                return i
            if not jumped and self._marks.bit(i + 1):
                i = int(self._sp[self._marks.rank1(i + 1) - 1])
                jumped = True
            else:
                i = int(perm[i])
