"""Little-endian byte plumbing for the index container format.

Everything is written through a ByteWriter and read back through a
ByteReader that refuses to read past the end (truncations surface as
SerializationError, not garbage).  Sections wrap a payload with a u64
length prefix and a CRC32 suffix, so a corrupted or cut-off file fails
fast during load.

Primitive encodings:

* uint array — u8 bit width, u64 count, bit-packed little-endian values;
* bit vector — u64 bit count, packed bits;
* DAC — u64 value count, u8 level count, then per level u8 width + u64
  chunk count + packed chunks, followed by the packed continuation bitmap
  on every level except the last.  Level 0 holds one chunk per value and
  each later level one per set bit of the bitmap before it; a section that
  disagrees is rejected on load.
"""

import struct
import zlib

import numpy as np

from .bits import BitVector, DacSequence, pack_uint_array, unpack_uint_array


class SerializationError(ValueError):
    pass


class ByteWriter:
    def __init__(self):
        self._parts = []

    def raw(self, data):
        self._parts.append(bytes(data))

    def u8(self, v):
        self._parts.append(struct.pack("<B", v))

    def u16(self, v):
        self._parts.append(struct.pack("<H", v))

    def u32(self, v):
        self._parts.append(struct.pack("<I", v))

    def u64(self, v):
        self._parts.append(struct.pack("<Q", v))

    def getvalue(self):
        return b"".join(self._parts)


class ByteReader:
    def __init__(self, data):
        self._data = data
        self._pos = 0

    def _take(self, n):
        if self._pos + n > len(self._data):
            raise SerializationError(
                "truncated input: need %d bytes at offset %d" % (n, self._pos)
            )
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def raw(self, n):
        return self._take(n)

    def u8(self):
        return struct.unpack("<B", self._take(1))[0]

    def u16(self):
        return struct.unpack("<H", self._take(2))[0]

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def at_end(self):
        return self._pos == len(self._data)


def bits_needed(max_value):
    return max(int(max_value).bit_length(), 1)


def write_uint_array(w, values):
    values = np.asarray(values, dtype=np.uint64)
    width = bits_needed(values.max() if len(values) else 0)
    w.u8(width)
    w.u64(len(values))
    w.raw(pack_uint_array(values, width))


def read_uint_array(r):
    width = r.u8()
    count = r.u64()
    data = r.raw((width * count + 7) // 8)
    return unpack_uint_array(data, width, count).astype(np.int64)


def write_bitvector(w, bv):
    w.u64(len(bv))
    w.raw(bv.to_bytes())


def read_bitvector(r):
    n = r.u64()
    data = r.raw((n + 7) // 8)
    return BitVector.from_bytes(data, n)


def write_dac(w, dac):
    n, widths, levels, conts = dac.parts
    w.u64(n)
    w.u8(len(levels))
    for li, chunks in enumerate(levels):
        w.u8(widths[li])
        w.u64(len(chunks))
        w.raw(pack_uint_array(chunks, widths[li]))
        if li < len(conts):
            w.raw(conts[li].to_bytes())


def read_dac(r):
    n = r.u64()
    n_levels = r.u8()
    if n_levels == 0:
        raise SerializationError("DAC sequence has no levels")
    widths = []
    levels = []
    conts = []
    for li in range(n_levels):
        width = r.u8()
        count = r.u64()
        # level 0 holds every value; each later level, the ones continued
        expected = conts[-1].n_ones if conts else n
        if count != expected:
            raise SerializationError(
                "DAC level %d holds %d chunks, expected %d" % (li, count, expected)
            )
        chunk_data = r.raw((width * count + 7) // 8)
        chunks = unpack_uint_array(chunk_data, width, count)
        widths.append(width)
        levels.append(chunks)
        if li < n_levels - 1:
            conts.append(BitVector.from_bytes(r.raw((count + 7) // 8), count))
    return DacSequence.from_parts(n, widths, levels, conts)


def wrap_section(payload):
    return struct.pack("<Q", len(payload)) + payload + struct.pack(
        "<I", zlib.crc32(payload)
    )


def read_section(r):
    length = r.u64()
    payload = r.raw(length)
    crc = r.u32()
    if crc != zlib.crc32(payload):
        raise SerializationError("section checksum mismatch")
    return payload
