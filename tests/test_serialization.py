import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajindex import TrajectoryIndex
from trajindex.bits import BitVector, DacSequence
from trajindex.grammar import EV_D
from trajindex.serial import (
    ByteReader,
    ByteWriter,
    SerializationError,
    read_bitvector,
    read_dac,
    read_section,
    read_uint_array,
    wrap_section,
    write_bitvector,
    write_dac,
    write_uint_array,
)


class TestByteStream:
    def test_scalar_round_trip(self):
        w = ByteWriter()
        w.u8(7)
        w.u16(60000)
        w.u32(2**31)
        w.u64(2**40 + 3)
        r = ByteReader(w.getvalue())
        assert r.u8() == 7
        assert r.u16() == 60000
        assert r.u32() == 2**31
        assert r.u64() == 2**40 + 3
        assert r.at_end()

    def test_truncation_reports_offset(self):
        r = ByteReader(b"\x01\x02")
        r.u8()
        with pytest.raises(SerializationError, match="need 8 bytes at offset 1"):
            r.u64()

    def test_uint_array_round_trip(self):
        for values in ([], [0], [5, 0, 3], list(range(1000)), [2**50, 1]):
            w = ByteWriter()
            write_uint_array(w, values)
            got = read_uint_array(ByteReader(w.getvalue()))
            assert list(got) == values

    def test_bitvector_round_trip(self):
        bv = BitVector([1, 0, 1, 1, 0, 0, 0, 1, 1])
        w = ByteWriter()
        write_bitvector(w, bv)
        got = read_bitvector(ByteReader(w.getvalue()))
        assert got.raw.tolist() == bv.raw.tolist()

    def test_dac_round_trip(self):
        for make in (
            lambda v: DacSequence.optimal(v),
            lambda v: DacSequence.fixed(v, 8, 2),
        ):
            values = [0, 1, 300, 70000, 5, 2**33]
            dac = make(values)
            w = ByteWriter()
            write_dac(w, dac)
            got = read_dac(ByteReader(w.getvalue()))
            assert got.to_list() == values

    @pytest.mark.parametrize("fault", ["no_levels", "short_level0", "bitmap_overclaims"])
    def test_inconsistent_dac_rejected(self, fault):
        n, widths, levels, conts = DacSequence([300, 300, 300, 300], [8, 8]).parts
        if fault == "no_levels":
            widths, levels, conts = [], [], []
        elif fault == "short_level0":
            n += 3
        else:  # the bitmap continues 4 values into a level holding 2
            levels = [levels[0], levels[1][:2]]
        w = ByteWriter()
        write_dac(w, DacSequence.from_parts(n, widths, levels, conts))
        with pytest.raises(SerializationError, match="DAC"):
            read_dac(ByteReader(w.getvalue()))

    def test_section_checksum(self):
        blob = wrap_section(b"payload-bytes")
        assert read_section(ByteReader(blob)) == b"payload-bytes"
        bad = blob[:10] + bytes([blob[10] ^ 0xFF]) + blob[11:]
        with pytest.raises(SerializationError, match="checksum"):
            read_section(ByteReader(bad))

    def test_section_truncated(self):
        blob = wrap_section(b"payload-bytes")
        with pytest.raises(SerializationError, match="truncated"):
            read_section(ByteReader(blob[:-6]))


@given(st.lists(st.integers(min_value=0, max_value=2**40)))
def test_uint_array_property(values):
    w = ByteWriter()
    write_uint_array(w, values)
    assert list(read_uint_array(ByteReader(w.getvalue()))) == values


class TestIndexContainer:
    def test_round_trip_preserves_queries(self, walkthrough_index, tmp_path):
        path = tmp_path / "walk.gcti"
        walkthrough_index.save(path)
        loaded = TrajectoryIndex.load(path)
        assert loaded.params == walkthrough_index.params
        assert loaded.time_slice((7, 3, 10, 4), 10) == [(2, (9, 4)), (5, (7, 3))]
        assert loaded.position_of(5, 10) == (7, 3)
        assert loaded.trajectory(6, 3, 13) == walkthrough_index.trajectory(6, 3, 13)

    def test_round_trip_is_bit_exact(self, walkthrough_index):
        blob = walkthrough_index.to_bytes()
        again = TrajectoryIndex.from_bytes(blob).to_bytes()
        assert again == blob

    def test_bad_magic(self, walkthrough_index):
        blob = walkthrough_index.to_bytes()
        with pytest.raises(SerializationError, match="magic"):
            TrajectoryIndex.from_bytes(b"XXXX" + blob[4:])

    def test_bad_version(self, walkthrough_index):
        blob = bytearray(walkthrough_index.to_bytes())
        blob[4] ^= 0xFF
        with pytest.raises(SerializationError, match="version"):
            TrajectoryIndex.from_bytes(bytes(blob))

    def test_trailing_data(self, walkthrough_index):
        blob = walkthrough_index.to_bytes()
        with pytest.raises(SerializationError, match="trailing"):
            TrajectoryIndex.from_bytes(blob + b"\x00")

    def test_every_truncation_fails_loudly(self, walkthrough_index):
        blob = walkthrough_index.to_bytes()
        cuts = sorted({1, 4, 5, len(blob) // 2, len(blob) - 1})
        for cut in cuts:
            with pytest.raises(SerializationError):
                TrajectoryIndex.from_bytes(blob[:cut])

    def test_flipped_byte_fails_loudly(self, walkthrough_index):
        blob = walkthrough_index.to_bytes()
        rng = np.random.default_rng(9)
        for pos in rng.integers(5, len(blob), size=12):
            bad = bytearray(blob)
            bad[pos] ^= 0xFF
            with pytest.raises(SerializationError):
                TrajectoryIndex.from_bytes(bytes(bad))

    @pytest.mark.parametrize("fault", ["event_member", "later_member", "unknown_symbol"])
    def test_crc_valid_bad_symbols_rejected(self, appearance_series, fault):
        # plant the fault in memory, then serialize so every CRC is valid
        idx = TrajectoryIndex.build(appearance_series, period=8, k=2, side=32)
        nt_base, n_rules = idx.rules.nt_base, idx.rules.n_rules
        assert n_rules >= 1
        if fault == "event_member":
            idx.rules.pairs[0, 0] = EV_D
        elif fault == "later_member":
            idx.rules.pairs[0, 1] = nt_base  # the rule's own id
        else:
            moves = np.flatnonzero(idx.logs.syms >= nt_base)
            idx.logs.syms[moves[0]] = nt_base + n_rules
        with pytest.raises(SerializationError):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    def test_crc_valid_bad_dac_rejected(self, appearance_series):
        idx = TrajectoryIndex.build(appearance_series, period=8, k=2, side=32)
        n, widths, levels, conts = DacSequence.optimal(idx.logs.syms).parts
        w = ByteWriter()
        write_dac(w, DacSequence.from_parts(n + 3, widths, levels, conts))
        idx._streams_payload = w.getvalue  # serialized with a valid CRC
        with pytest.raises(SerializationError, match="DAC"):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    def test_stats_shape(self, walkthrough_index):
        stats = walkthrough_index.stats()
        assert stats["objects"] == 7
        assert stats["t_max"] == 16
        assert stats["period"] == 8
        assert stats["raw_symbols"] == 87
        assert set(stats["bytes"]) == {
            "snapshots",
            "log_streams",
            "log_events",
            "dictionary",
            "total",
        }
        assert stats["bytes"]["total"] == len(walkthrough_index.to_bytes())
