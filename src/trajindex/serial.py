"""Little-endian byte plumbing for the index container format.

Everything is written through a ByteWriter and read back through a
ByteReader that refuses to read past the end (truncations surface as
SerializationError, not garbage).  Sections wrap a payload with a u64
length prefix and a CRC32 suffix, so a corrupted or cut-off file fails
fast during load.

A section's payload is a run of fields, each of one kind in ``FIELDS``,
which holds the one writer and the one reader of every kind;
``write_fields`` and ``read_fields`` turn a section's values into its
payload and back.  The kinds:

* ``u32``, ``u64`` — one little-endian scalar;
* ``uints`` — a uint array: u8 bit width, u64 count, bit-packed
  little-endian values;
* ``bits`` — a bit vector: u64 bit count, packed bits;
* ``dac`` — an int64 array as a DAC with the optimal level widths, and
  ``dac_fixed`` as one with 8-bit chunks on at most two levels; both are
  u64 value count, u8 level count, then per level u8 width + u64 chunk
  count + packed chunks, followed by the packed continuation bitmap on
  every level except the last.  Level 0 holds one chunk per value and
  each later level one per set bit of the bitmap before it.

Loading rejects a DAC whose levels disagree with that, a width outside
1..64 in a uint array or DAC level, DAC level widths that sum past 64,
DAC values of 2**63 or more, and nonzero padding bits after the last
packed value or bit in any of them.
"""

import struct
import zlib

import numpy as np

from .bits import DacSequence, pack_uint_array, unpack_uint_array


class SerializationError(ValueError):
    pass


class ByteWriter:
    def __init__(self):
        self._parts = []

    def raw(self, data):
        self._parts.append(bytes(data))

    def u8(self, v):
        self._parts.append(struct.pack("<B", v))

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

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def at_end(self):
        return self._pos == len(self._data)

    def expect_end(self, what):
        """Raise unless every byte has been read; ``what`` names the data."""
        if not self.at_end():
            raise SerializationError(
                "%s: %d trailing bytes" % (what, len(self._data) - self._pos)
            )


def bits_needed(max_value):
    return max(int(max_value).bit_length(), 1)


def write_uint_array(w, values):
    values = np.asarray(values, dtype=np.uint64)
    width = bits_needed(values.max() if len(values) else 0)
    w.u8(width)
    w.u64(len(values))
    w.raw(pack_uint_array(values, width))


def _read_width(r, what):
    width = r.u8()
    if not 1 <= width <= 64:
        raise SerializationError("%s bit width %d outside 1..64" % (what, width))
    return width


def _read_packed(r, n_bits):
    """The bytes that pack ``n_bits`` bits; the padding bits after them
    must be 0."""
    data = r.raw((n_bits + 7) // 8)
    if n_bits % 8 and data[-1] >> n_bits % 8:
        raise SerializationError("nonzero padding bits")
    return data


def read_uint_array(r):
    width = _read_width(r, "uint array")
    count = r.u64()
    data = _read_packed(r, width * count)
    return unpack_uint_array(data, width, count).astype(np.int64)


def _pack_bits(bits):
    return np.packbits(bits, bitorder="little").tobytes()


def _read_bits(r, n):
    data = _read_packed(r, n)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n, bitorder="little")


def write_bitvector(w, bits):
    """``bits``: a uint8 array of 0s and 1s."""
    w.u64(len(bits))
    w.raw(_pack_bits(bits))


def read_bitvector(r):
    """The bits as a uint8 array of 0s and 1s."""
    return _read_bits(r, r.u64())


def write_dac(w, dac):
    n, widths, levels, conts = dac.parts
    w.u64(n)
    w.u8(len(levels))
    for li, chunks in enumerate(levels):
        w.u8(widths[li])
        w.u64(len(chunks))
        w.raw(pack_uint_array(chunks, widths[li]))
        if li < len(conts):
            w.raw(_pack_bits(conts[li]))


def read_dac(r):
    n = r.u64()
    n_levels = r.u8()
    if n_levels == 0:
        raise SerializationError("DAC sequence has no levels")
    widths = []
    levels = []
    conts = []
    for li in range(n_levels):
        width = _read_width(r, "DAC level %d" % li)
        if sum(widths) + width > 64:  # a value would not fit 64 bits
            raise SerializationError("DAC level widths sum past 64 bits")
        count = r.u64()
        # level 0 holds every value; each later level, the ones continued
        expected = int(np.count_nonzero(conts[-1])) if conts else n
        if count != expected:
            raise SerializationError(
                "DAC level %d holds %d chunks, expected %d" % (li, count, expected)
            )
        chunk_data = _read_packed(r, width * count)
        chunks = unpack_uint_array(chunk_data, width, count)
        widths.append(width)
        levels.append(chunks)
        if li < n_levels - 1:
            conts.append(_read_bits(r, count))
    return DacSequence.from_parts(n, widths, levels, conts)


def read_dac_int64(r):
    """A DAC section decoded to an int64 array; values of 2**63 or more
    are rejected."""
    values = read_dac(r).to_list().view(np.int64)
    if len(values) and values.min() < 0:
        raise SerializationError("DAC value does not fit int64")
    return values


# (writer, reader) of each field kind; a writer takes (ByteWriter, value)
# and a reader a ByteReader
FIELDS = {
    "u32": (ByteWriter.u32, ByteReader.u32),
    "u64": (ByteWriter.u64, ByteReader.u64),
    "uints": (write_uint_array, read_uint_array),
    "bits": (write_bitvector, read_bitvector),
    "dac": (lambda w, v: write_dac(w, DacSequence.optimal(v)), read_dac_int64),
    "dac_fixed": (lambda w, v: write_dac(w, DacSequence.fixed(v, 8, 2)), read_dac_int64),
}


def write_fields(kinds, values):
    """The payload of ``values``, one field of each kind in ``kinds``."""
    w = ByteWriter()
    for kind, value in zip(kinds, values, strict=True):
        FIELDS[kind][0](w, value)
    return w.getvalue()


def read_fields(r, kinds, what):
    """The values of the next section's fields, one of each kind in
    ``kinds``; ``what`` names the section in errors."""
    fr = ByteReader(read_section(r))
    values = [FIELDS[kind][1](fr) for kind in kinds]
    fr.expect_end(what)
    return values


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
