import gc
import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from conftest import WALKTHROUGH_SERIES, deadline, make_walk_series
from hypothesis import given
from hypothesis import strategies as st

from trajindex import TrajectoryIndex, spiral
from trajindex.bits import BitVector, DacSequence
from trajindex.engine import HEADER, MAX_PERIODS, PARAM_NAMES
from trajindex.grammar import EV_D, EV_RM, MOVE_BASE
from trajindex.k2tree import K2Tree, encode
from trajindex.serial import (
    ByteReader,
    ByteWriter,
    SerializationError,
    read_bitvector,
    read_dac,
    read_dac_int64,
    read_section,
    read_uint_array,
    wrap_section,
    write_bitvector,
    write_dac,
    write_fields,
    write_uint_array,
)
from trajindex.snapshot import Snapshot


# object 1 stays in one cell over 0..16; object 2 appears at instant 10 in
# (3, 5), moves to (4, 6) and is gone after 11
TWO_OBJECTS = {1: [(0, [(1, 1)] * 17)], 2: [(10, [(3, 5), (4, 6)])]}


def _replace_section(idx, hook, part, value, nth=0):
    """Make ``idx`` serialize ``value`` as its ``nth`` ``part`` section:
    the field values when ``hook`` is "_fields", the payload bytes when it
    is "_sections"."""
    original = getattr(idx, hook)

    def replaced():
        hits = itertools.count()
        for p, v in original():
            yield p, value if p == part and next(hits) == nth else v

    setattr(idx, hook, replaced)


class TestByteStream:
    def test_scalar_round_trip(self):
        w = ByteWriter()
        w.u8(7)
        w.u32(2**31)
        w.u64(2**40 + 3)
        r = ByteReader(w.getvalue())
        assert r.u8() == 7
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
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
        w = ByteWriter()
        write_bitvector(w, bits)
        assert w.getvalue() == (9).to_bytes(8, "little") + bytes([0b10001101, 0b1])
        got = read_bitvector(ByteReader(w.getvalue()))
        assert got.tolist() == bits.tolist()

    @pytest.mark.parametrize(
        "write, read, values",
        [
            (write_bitvector, read_bitvector, [1, 0, 1, 1, 0, 0, 0, 1, 1]),
            (write_uint_array, read_uint_array, [5, 0, 3]),
        ],
        ids=["bit_vector", "uint_array"],
    )
    def test_nonzero_padding_rejected(self, write, read, values):
        # nine packed bits either way: the last byte's top seven are padding
        w = ByteWriter()
        write(w, np.array(values))
        good = w.getvalue()
        assert read(ByteReader(good)).tolist() == values
        bad = good[:-1] + bytes([good[-1] | 0x80])
        with pytest.raises(SerializationError, match="padding"):
            read(ByteReader(bad))

    def test_dac_round_trip(self):
        values = [0, 1, 300, 70000, 5, 2**33]
        for dac, want in (
            (DacSequence.optimal(values), values),
            (DacSequence.fixed(values, 8, 2), values),
            # configured widths outlast the values: the later levels stay empty
            (DacSequence([1, 2, 3], [2, 2, 2, 30]), [1, 2, 3]),
        ):
            w = ByteWriter()
            write_dac(w, dac)
            got = read_dac(ByteReader(w.getvalue()))
            assert got.parts[1] == dac.parts[1]  # the level widths
            assert got.to_list().tolist() == want

    @pytest.mark.parametrize(
        "fault",
        [
            "no_levels",
            "short_level0",
            "bitmap_overclaims",
            "zero_width",
            "wide_level",
            "widths_past_64",
            "past_int64",
        ],
    )
    def test_inconsistent_dac_rejected(self, fault):
        n, widths, levels, conts = DacSequence([300, 300, 300, 300], [8, 8]).parts
        if fault == "widths_past_64":  # shifts past bit 63 would drop high bits
            n, widths, levels, conts = DacSequence([1, 2**40], [8, 60]).parts
        elif fault == "past_int64":  # a valid uint64 DAC, read as int64
            n, widths, levels, conts = DacSequence([1, 2**63], [64]).parts
        elif fault == "no_levels":
            widths, levels, conts = [], [], []
        elif fault == "short_level0":
            n += 3
        elif fault == "bitmap_overclaims":  # continues 4 values into a level of 2
            levels = [levels[0], levels[1][:2]]
        elif fault == "wide_level":
            widths = [8, 200]
        w = ByteWriter()
        if fault == "zero_width":  # 2**50 chunks of width 0 take no bytes
            w.u64(2**50)
            w.u8(1)
            w.u8(0)
            w.u64(2**50)
        else:
            write_dac(w, DacSequence.from_parts(n, widths, levels, conts))
        with pytest.raises(SerializationError, match="DAC"):
            read_dac_int64(ByteReader(w.getvalue()))

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
        for table in ("sym_span", "sym_dx", "sym_dy", "sym_mbr", "sym_pairs"):
            got, want = getattr(loaded.rules, table), getattr(walkthrough_index.rules, table)
            assert np.array_equal(np.asarray(got), np.asarray(want)), table

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
        for version in (blob[4] ^ 0xFF, 1, 2, 3):  # a flipped byte; older formats
            blob[4:6] = version.to_bytes(2, "little")
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

    @pytest.mark.parametrize(
        "fault",
        [
            "event_member",
            "later_member",
            "deep_chain",
            "span_overflow",
            "unknown_symbol",
            "pair_member_respanned",
            "app_width_0",
            "app_width_200",
            "present_extra",
            "present_long",
            "q_all_ones",
            "q_open_last_group",
            "perm_out_of_range",
            "k_below_2",
            "k_past_256",
            "period_0",
            "period_past_int64",
            "side_past_int64",
            "t_max_past_snapshots",
            "ids_unsorted",
            "ids_short",
            "max_speed_below_moves",
            "portion_id_repeated",
            "portion_id_past_n",
            "portion_ids_past_logs",
            "side_array_long",
            "d_before_end",
            "p_entries_shifted",
            "aa_at_snapshot",
            "rm_past_side",
        ],
    )
    def test_crc_valid_bad_symbols_rejected(self, appearance_series, fault):
        # plant the fault in memory, then serialize so every CRC is valid
        idx = TrajectoryIndex.build(appearance_series, period=8, k=2, side=32)
        nt_base, n_rules = idx.rules.nt_base, idx.rules.n_rules
        assert n_rules >= 1
        # snapshot 1 holds object 1; object 0 appears in portion 1 and
        # closes it with D, so it appears after snapshot 1 and is gone at 2
        snap = idx.snapshots[1]
        present, perm, q = snap.file_fields()
        assert present.tolist() == [0, 1] and perm.tolist() == [0] and q.tolist() == [0]
        ids = idx.logs.table.ids
        assert ids[idx.logs.appearing(1)].tolist() == [0]
        assert ids[idx.logs.disappeared(2)].tolist() == [0]
        if fault == "event_member":
            idx.rules.pairs[0, 0] = EV_D
        elif fault == "later_member":
            idx.rules.pairs[0, 1] = nt_base  # the rule's own id
        elif fault in ("deep_chain", "span_overflow"):
            pairs = [(MOVE_BASE, MOVE_BASE)]
            if fault == "deep_chain":  # (previous rule, move): the deepest grammar
                pairs += [(nt_base + i, MOVE_BASE) for i in range(4999)]
            else:  # (previous rule, previous rule): the last spans 2**70
                pairs += [(nt_base + i, nt_base + i) for i in range(69)]
            dictionary = (idx.rules.max_move_code, len(pairs), np.array(pairs).reshape(-1))
            _replace_section(idx, "_fields", "dictionary", dictionary)
        elif fault == "unknown_symbol":
            moves = np.flatnonzero(idx.logs.syms >= nt_base)
            idx.logs.syms[moves[0]] = nt_base + n_rules
        elif fault == "pair_member_respanned":
            # object 1's portion-1 log is two copies of the third rule, which
            # pairs the first rule with itself; a move in place of one member
            # leaves the log one instant short of the portion end
            assert idx.rules.pairs[2].tolist() == [nt_base, nt_base]
            idx.rules.pairs[2, 1] = MOVE_BASE
        elif fault.startswith("app_width"):
            # rewrite a packed uint array's width: snapshot 1's permutation,
            # the field before its Q bitmap
            tail = write_fields(("uints", "bits"), (perm, q))
            good = [payload for part, payload in idx._sections() if part == "snapshots"][1]
            assert good.endswith(tail)
            bad = ByteWriter()
            bad.raw(good[: -len(tail)])
            if fault == "app_width_0":  # 2**50 values of width 0 take no bytes
                bad.u8(0)
                bad.u64(2**50)
            else:
                bad.u8(200)
                bad.u64(1)
                bad.raw(bytes(25))
            bad.raw(write_fields(("bits",), (q,)))
            _replace_section(idx, "_sections", "snapshots", bad.getvalue(), nth=1)
        elif fault in ("present_extra", "present_long", "q_all_ones", "q_open_last_group",
                       "perm_out_of_range"):
            # snapshot 1's payload is written from these fields
            if fault == "present_extra":
                present = np.array([1, 1])
            elif fault == "present_long":
                present = np.array([0, 1, 0])
            elif fault == "q_all_ones":
                q = np.array([1])
            elif fault == "q_open_last_group":
                # both objects present, object 0 in no cell: Q has one 0 for
                # the tree's one cell, but then leaves a group open
                present, perm, q = np.array([1, 1]), np.array([1, 0]), np.array([0, 1])
            else:
                perm = np.array([1])
            snap.file_fields = lambda: (present, perm, q)
        elif fault in ("k_below_2", "k_past_256", "side_past_int64"):
            # in the params section only: the snapshots' k2-trees are
            # encoded with the index's own k and side
            name, value = {
                "k_below_2": ("k", 1), "k_past_256": ("k", 257), "side_past_int64": ("side", 2**32),
            }[fault]
            params = next(v for part, v in idx._fields() if part == "params")
            params[PARAM_NAMES.index(name)] = value
            _replace_section(idx, "_fields", "params", params)
        elif fault == "period_0":
            idx.params.period = 0
        elif fault == "period_past_int64":
            idx.params.period = 2**63
        elif fault == "t_max_past_snapshots":
            idx.params.t_max = 24
        elif fault == "ids_unsorted":
            idx.ids = np.array([9, 5])
        elif fault == "ids_short":
            idx.ids = np.array([5])
        elif fault == "max_speed_below_moves":
            idx.params.max_speed = 0
        else:
            # portion 0 holds object 1's log of two rules; portion 1 holds
            # object 0's [AA, move, D] and object 1's log of two rules
            logs, table = idx.logs, idx.logs.table
            assert logs.bounds.tolist() == [0, 1, 3] and table.ids.tolist() == [1, 0, 1]
            assert table.sym_off[:2].tolist() == [0, 2] and table.p_off[1:].tolist() == [0, 4, 4]
            # each portion's logs as serialized: ids, symbol counts, D and P entries
            p0, p1 = (list(logs.portion(h)) for h in range(2))
            logs.portion = lambda h: (p0, p1)[h]
            if fault == "portion_id_repeated":
                p1[0] = np.array([0, 0])
            elif fault == "portion_id_past_n":
                p0[0] = np.array([2])
            elif fault == "portion_ids_past_logs":
                p0[0] = np.array([0, 1])
            elif fault == "side_array_long":
                p0[2] = np.array([7])
            elif fault == "d_before_end":  # with its D and P entries
                idx.logs.syms[0] = EV_D
                p0[2], p0[3] = np.array([0]), np.array([20, 20])
            elif fault == "p_entries_shifted":  # five P entries for an AA and a D
                p1[3] = np.append(p1[3], 0)
            elif fault == "rm_past_side":  # object 0's two moves become a gap
                # of one instant that ends 40 cells east, past the 32-cell side
                idx.logs.syms[table.sym_off[1] + 1] = EV_RM
                p1[2] = np.array([11, 1, 13])
                p1[3] = np.insert(p1[3].astype(np.int64), 2, spiral.encode(40, 0))
            else:  # object 0 appears at the snapshot and reaches its D in time
                assert p1[2].tolist() == [11, 13]
                p1[2] = np.array([8, 10])
        blob = idx.to_bytes()
        with deadline(2.0):
            if fault == "deep_chain":  # may load: every rule the logs name exists
                try:
                    loaded = TrajectoryIndex.from_bytes(blob)
                except SerializationError:
                    pass
                else:
                    assert loaded.rules.n_rules == 5000
            elif fault == "span_overflow":
                with pytest.raises(SerializationError, match="overflow"):
                    TrajectoryIndex.from_bytes(blob)
            else:
                with pytest.raises(SerializationError):
                    TrajectoryIndex.from_bytes(blob)

    def test_crc_valid_bad_dac_rejected(self, appearance_series):
        idx = TrajectoryIndex.build(appearance_series, period=8, k=2, side=32)
        n, widths, levels, conts = DacSequence.optimal(idx.logs.syms).parts
        w = ByteWriter()
        write_dac(w, DacSequence.from_parts(n + 3, widths, levels, conts))
        _replace_section(idx, "_sections", "log_streams", w.getvalue())  # with a valid CRC
        with pytest.raises(SerializationError, match="DAC"):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    def test_log_instants_that_wrap_around_rejected(self):
        # four gaps in place take the log from instant 0 to 100; two gaps of
        # 2**63 instants add up to 0 modulo 2**64, and the other two to 100
        idx = TrajectoryIndex.build({1: [(t, [(3, 3)]) for t in (0, 10, 20, 30, 100)]}, period=100)
        ids, sym_lens, d_vals, p_vals = idx.logs.portion(0)
        assert d_vals.tolist() == [9, 9, 9, 69]
        d_vals = np.array([2**63 - 1, 2**63 - 1, 9, 89])
        idx.logs.portion = lambda h: (ids, sym_lens, d_vals, p_vals)
        with pytest.raises(SerializationError, match="add up"):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    @pytest.mark.parametrize(
        "section", ["params", "dictionary", "log_streams", "log_events", "snapshots"]
    )
    def test_trailing_bytes_inside_a_section_rejected(self, section):
        idx = TrajectoryIndex.build(TWO_OBJECTS, period=8, side=8)
        sections = list(idx._sections())
        hits = [i for i, (part, _) in enumerate(sections) if part == section]
        assert hits
        for i in hits:
            payloads = [payload for _, payload in sections]
            payloads[i] += bytes(range(1, 7))  # re-wrapped with a valid CRC
            blob = HEADER + b"".join(wrap_section(p) for p in payloads)
            with pytest.raises(SerializationError, match="%s section.*6 trailing" % section):
                TrajectoryIndex.from_bytes(blob)

    def test_nonzero_padding_in_a_section_rejected(self):
        # the final snapshots section ends with its Q bitmap's last byte
        idx = TrajectoryIndex.build(TWO_OBJECTS, period=8, side=8)
        part, payload = list(idx._sections())[-1]
        assert part == "snapshots" and not payload[-1] & 0x80
        bad = payload[:-1] + bytes([payload[-1] | 0x80])  # re-wrapped with a valid CRC
        _replace_section(idx, "_sections", "snapshots", bad, nth=len(idx.snapshots) - 1)
        with pytest.raises(SerializationError, match="padding"):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    @pytest.mark.parametrize("entry", [0, 1, 2, 3])  # the AA's x, y, then the D's
    def test_anchor_position_outside_the_grid_rejected(self, entry):
        idx = TrajectoryIndex.build(TWO_OBJECTS, period=8, side=8)
        # portion 1: object 1 stays put, object 2 is [AA, move, D]
        ids, sym_lens, d_vals, p_vals = idx.logs.portion(1)
        assert p_vals.tolist() == [3, 5, 4, 6]
        p_vals = p_vals.astype(np.int64)
        p_vals[entry] += 8  # past the 8-cell side; the move stays as it was
        portion = idx.logs.portion
        idx.logs.portion = lambda h: (ids, sym_lens, d_vals, p_vals) if h == 1 else portion(h)
        with pytest.raises(SerializationError, match="outside the grid"):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    @pytest.mark.parametrize("entry", [0, 1, 2, 3])  # the AA's x, y, then the D's
    def test_anchor_the_moves_do_not_lead_to_rejected(self, entry):
        idx = TrajectoryIndex.build(TWO_OBJECTS, period=8, side=8)
        # portion 1: object 2's [AA (3, 5), move (1, 1), D (4, 6)]
        ids, sym_lens, d_vals, p_vals = idx.logs.portion(1)
        p_vals = p_vals.astype(np.int64)
        p_vals[entry] += 1  # inside the grid, the instants unchanged
        portion = idx.logs.portion
        idx.logs.portion = lambda h: (ids, sym_lens, d_vals, p_vals) if h == 1 else portion(h)
        with pytest.raises(SerializationError, match="do not lead from its start to its end"):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    @pytest.mark.parametrize("cells, match", [
        ([(2, 1)], "do not lead from its start to its end"),  # object 1 moved
        ([], "absent from the snapshot"),  # object 1 gone
    ])
    def test_snapshot_cell_the_moves_do_not_lead_to_rejected(self, cells, match):
        idx = TrajectoryIndex.build(TWO_OBJECTS, period=8, side=8)
        # object 1 stays at (1, 1): its portion-0 log ends on snapshot 1 and
        # its portion-1 log starts there
        xs, ys = [c[0] for c in cells], [c[1] for c in cells]
        snap = Snapshot.build([0] * len(cells), xs, ys, k=2, side=8, n_objects=2)
        fields = (*encode(2, 8, xs, ys), *snap.file_fields())
        _replace_section(idx, "_fields", "snapshots", fields, nth=1)
        with pytest.raises(SerializationError, match=match):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    def test_non_canonical_k2tree_rejected(self):
        # snapshot 0 holds object 1 alone, at (1, 1): one bit per level
        idx = TrajectoryIndex.build(TWO_OBJECTS, period=8, side=8)
        t_bits, l_bits, *rest = next(v for p, v in idx._fields() if p == "snapshots")
        assert t_bits.tolist() == [1, 0, 0, 0, 1, 0, 0, 0] and l_bits.tolist() == [0, 0, 0, 1]
        # a free level-1 bit set, and its k^2 = 4 slots at level 2, all zero,
        # after those of the first node: the level sizes still agree
        t_bits = np.array([1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        _replace_section(idx, "_fields", "snapshots", (t_bits, l_bits, *rest))
        with pytest.raises(SerializationError, match="snapshot 0: a one in T"):
            TrajectoryIndex.from_bytes(idx.to_bytes())

    def test_every_build_re_saves_to_its_bytes(self, indexes):
        # each loaded k2-tree is the one its cells build, so re-encoding
        # the snapshots' cells gives the file back
        for idx in indexes.values():
            blob = idx.to_bytes()
            assert TrajectoryIndex.from_bytes(blob).to_bytes() == blob

    def test_saving_builds_no_tree_or_bit_vector(self, indexes, monkeypatch):
        # the snapshots' T and L come from encode, not from a K2Tree
        def refuse(self, *args):
            raise AssertionError("%s built while saving" % type(self).__name__)

        monkeypatch.setattr(K2Tree, "__init__", refuse)
        monkeypatch.setattr(BitVector, "__init__", refuse)
        for idx in indexes.values():
            assert TrajectoryIndex.from_bytes(idx.to_bytes()).stats() == idx.stats()

    def test_same_span_pair_swap_rejected(self):
        # every walk runs over instants 0..120, so every log ends at a D or
        # on a snapshot, where its end is known
        idx = TrajectoryIndex.build(make_walk_series(3, n_obj=8, t_len=121, side=64), period=30)
        rules = idx.rules
        span, dx, dy = (np.asarray(a) for a in (rules.sym_span, rules.sym_dx, rules.sym_dy))
        moves = np.arange(MOVE_BASE, MOVE_BASE + rules.max_move_code + 1)
        swaps = []  # a pair member for an earlier symbol of its span, moving elsewhere
        for r in range(rules.n_rules):
            earlier = np.append(moves, np.arange(rules.nt_base, rules.nt_base + r))
            for m, old in enumerate(rules.pairs[r].tolist()):
                alike = (span[earlier] == span[old]) & (
                    (dx[earlier] != dx[old]) | (dy[earlier] != dy[old])
                )
                swaps.extend((r, m, int(s)) for s in earlier[alike])
        rng = random.Random(3)
        for r, m, s in rng.sample(swaps, 25):
            pairs = rules.pairs.copy()
            pairs[r, m] = s
            dictionary = (rules.max_move_code, rules.n_rules, pairs.reshape(-1))
            _replace_section(idx, "_fields", "dictionary", dictionary)
            with pytest.raises(SerializationError, match="do not lead from its start to its end"):
                TrajectoryIndex.from_bytes(idx.to_bytes())
            del idx._fields  # the class's own again

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
        mem = stats["mem_bytes"]
        parts = ("snapshots", "log_streams", "log_events", "checkpoints", "columns", "dictionary")
        assert set(mem) == set(parts) | {"total"}
        assert all(mem[part] > 0 for part in parts)
        # the parts share no array; the total adds the id array
        ids = walkthrough_index.ids.nbytes
        assert mem["total"] == sum(mem[part] for part in parts) + ids
        # one byte per symbol: every symbol id is below 256
        assert mem["log_streams"] == stats["compressed_symbols"]
        # a fresh build holds what its load holds
        built = TrajectoryIndex.build(WALKTHROUGH_SERIES, period=8, k=2, side=16)
        assert TrajectoryIndex.from_bytes(built.to_bytes()).stats() == built.stats()

    def test_snapshot_mem_counts_the_cell_tables(self, indexes):
        # a snapshot holds its ids, cells and rows, and no k2-tree
        idx = TrajectoryIndex.from_bytes(indexes["appear", 30].to_bytes())
        want = sum(s.ids.nbytes + s.xy.nbytes + s.at.nbytes for s in idx.snapshots)
        assert idx.stats()["mem_bytes"]["snapshots"] == want

    def test_load_retains_little_beyond_mem_bytes(self, indexes):
        # what a loaded index holds beyond its counted arrays and bits is
        # object and container overhead, bounded per snapshot
        blob = indexes["appear", 30].to_bytes()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            idx = TrajectoryIndex.from_bytes(blob)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= idx.stats()["mem_bytes"]["total"] + 2000 * len(idx.snapshots)


# sha256 of ``to_bytes()`` for the walkthrough index and every conftest
# (dataset, period) build, recorded with index format version 4: a change
# that must keep the files byte-identical keeps these
FILE_DIGESTS = {
    "walkthrough": "43ab5437b063f2905ee198127db2dc0f197b36b41afb451822649bc474e54582",
    ("appear", 30): "27aace29dcfafde2475ab67383b351189a617e49aeb406bcbae8c66074957555",
    ("appear", 120): "38f96a779002bd3507d894b3fb4e0b5a0f6b3096797d1d5a7e1053f77b6af424",
    ("appear", 720): "fd824cfb8fb3a19428ff1ee0b2c1e8acfe279129df31d376dbca732e7cb885ee",
    ("random", 30): "c9e8f8d6e182b49b2c8705a472aa76d2fa299fd28c41438778c82933d4ad9690",
    ("random", 120): "ffc744002fb57b5b30b61ad4515dcac1dc3bc4ec3601c0e16afecbf05bcc9420",
    ("random", 720): "2a199df7fcca50535c54b2a34967935ef50f41e8a91a277c222908c1ca3b1d16",
    ("routes", 30): "afad1cb85e3f0cc4d5c4a2f1759a1f7451f5c98e73a6776ff62be381da65a774",
    ("routes", 120): "9b35c9a4335a899b49fab339db6b2995c11a585b5b872594fbbcb7f48c205eca",
    ("routes", 720): "bccab8b3b3785ba3b6f32b0aaf77e567d2f8caf8c28963fe570ed44474b2d30b",
}


def test_index_files_match_recorded_digests(walkthrough_index, indexes):
    got = {"walkthrough": hashlib.sha256(walkthrough_index.to_bytes()).hexdigest()}
    for key, idx in indexes.items():
        got[key] = hashlib.sha256(idx.to_bytes()).hexdigest()
    assert got == FILE_DIGESTS


FUZZ_TARGETS = {
    "walkthrough": lambda: TrajectoryIndex.build(WALKTHROUGH_SERIES, period=8, k=2, side=16),
    "walk": lambda: TrajectoryIndex.build(
        make_walk_series(3, n_obj=8, t_len=120, side=64, appear=True), period=30, k=2, side=64
    ),
}


def _answer_queries(idx, rng):
    """Ask every query type about the index's own ids and instants."""
    p = idx.params
    side, t_max = p.side, p.t_max
    instants = [0, t_max] + [rng.randrange(t_max + 2) for _ in range(4)]
    for obj in idx.ids:
        obj = int(obj)
        for t in instants:
            idx.position_of(obj, t)
        idx.trajectory(obj, 0, t_max)
    for t in instants:
        x, y = rng.randrange(side), rng.randrange(side)
        for region in ((0, 0, side - 1, side - 1), (x, y, x + side // 4, y + side // 4)):
            idx.time_slice(region, t)
            idx.time_interval(region, t, t + p.period)
        idx.knn(len(idx.ids), (x, y), t)


@pytest.mark.parametrize(
    "name, value",
    [
        ("k", 1),
        ("k", 0),
        ("k", 257),
        ("k", 70000),
        ("period", 0),
        ("period", 2**63),
        ("side", 2**32),
    ],
)
def test_build_rejects_out_of_range_parameters(name, value):
    # a k below 2 would grow the default grid side forever, and a k past 256
    # gives each k2-tree node more child slots than can be allocated; instants
    # and the cells' k2-tree path keys (up to side^2 - 1) are int64
    with deadline(2.0), pytest.raises(ValueError, match="out of range"):
        TrajectoryIndex.build(WALKTHROUGH_SERIES, **{"period": 8, name: value})


# two records at instant 2^40: at period 10 the timeline spans 1.1e11 periods
FAR_APART = {1: [(2**40, [(0, 0)])], 2: [(2**40, [(1, 1)])]}


def test_build_rejects_more_periods_than_the_bound():
    """Each period lays out a snapshot and a portion, data or not: past
    ``MAX_PERIODS`` of them build fails at once with a named error."""
    with deadline(1.0), pytest.raises(ValueError, match="more than the %d" % MAX_PERIODS):
        TrajectoryIndex.build(FAR_APART, period=10)


def test_load_rejects_more_periods_than_the_bound():
    """A file whose t_max spans more than ``MAX_PERIODS`` periods fails with
    SerializationError before its portions are read."""
    idx = TrajectoryIndex.build(FAR_APART, period=2**40)
    params = next(v for part, v in idx._fields() if part == "params")
    params[PARAM_NAMES.index("period")] = 10
    _replace_section(idx, "_fields", "params", params)
    blob = idx.to_bytes()
    with deadline(1.0), pytest.raises(SerializationError, match="more than the %d" % MAX_PERIODS):
        TrajectoryIndex.from_bytes(blob)


@pytest.mark.parametrize("gap", [0, 5])
def test_build_rejects_a_move_without_an_int64_code(gap):
    far = 2**31 - 1  # its spiral codes pass 2^63
    series = {1: [(0, [(0, 0)]), (1 + gap, [(far, 0)])]}
    with deadline(2.0), pytest.raises(ValueError, match="no int64 spiral code"):
        TrajectoryIndex.build(series, period=8, side=2**31)


def test_max_speed_bounded_by_the_grid():
    # with both raised, the move code bound no longer caps the tables that
    # loading sizes by the largest move code (2^32 entries each)
    idx = TrajectoryIndex.build(WALKTHROUGH_SERIES, period=8, k=2, side=16)
    rules, max_speed = idx.rules, idx.params.max_speed
    dictionary = (2**32 - 1, rules.n_rules, rules.pairs.reshape(-1))
    _replace_section(idx, "_fields", "dictionary", dictionary)
    idx.params.max_speed = 40_000
    with deadline(2.0), pytest.raises(SerializationError, match="max_speed 40000 exceeds 22"):
        TrajectoryIndex.from_bytes(idx.to_bytes())
    # with the real max_speed, the move code is what is out of bounds
    idx.params.max_speed = max_speed
    with deadline(2.0), pytest.raises(SerializationError, match="move code 4294967295 exceeds"):
        TrajectoryIndex.from_bytes(idx.to_bytes())
    # the bound itself loads: a diagonal jump across the 16 grid is 21.2 cells
    idx = TrajectoryIndex.build({1: [(0, [(0, 0), (15, 15)])]}, period=8, side=16)
    assert idx.params.max_speed == 22
    assert TrajectoryIndex.from_bytes(idx.to_bytes()).params == idx.params


@pytest.mark.parametrize(
    "params", [{"period": 2**63 - 1}, {"period": 8, "side": 2**31}, {"period": 8, "k": 256}]
)
def test_largest_parameters_round_trip(params, walkthrough_oracle):
    idx = TrajectoryIndex.build(WALKTHROUGH_SERIES, **params)
    loaded = TrajectoryIndex.from_bytes(idx.to_bytes())
    assert loaded.params == idx.params
    for t in range(0, 17, 4):
        region = (0, 0, 15, 15)
        assert loaded.time_slice(region, t) == walkthrough_oracle.time_slice(region, t)
    assert loaded.knn(3, (5, 5), 9) == walkthrough_oracle.knn(3, (5, 5), 9)


@pytest.mark.parametrize("target", sorted(FUZZ_TARGETS))
def test_flipped_bit_with_valid_crc_fails_named_or_answers(target):
    """A one-bit flip in one section, re-wrapped with a valid CRC, either
    raises SerializationError on load or loads and answers every query type
    without an exception or a hang."""
    blob = FUZZ_TARGETS[target]().to_bytes()
    r = ByteReader(blob[len(HEADER):])
    payloads = []
    while not r.at_end():
        payloads.append(read_section(r))
    rng = random.Random(target)
    escapes = []
    for _ in range(500):
        si = rng.randrange(len(payloads))
        bit = rng.randrange(8 * len(payloads[si]))
        bad = bytearray(payloads[si])
        bad[bit // 8] ^= 1 << (bit % 8)
        sections = payloads[:si] + [bytes(bad)] + payloads[si + 1:]
        mutant = HEADER + b"".join(wrap_section(s) for s in sections)
        try:
            with deadline(2.0):
                try:
                    idx = TrajectoryIndex.from_bytes(mutant)
                except SerializationError:
                    continue
                _answer_queries(idx, rng)
        except Exception as e:  # any other exception is an escape
            escapes.append((si, bit, type(e).__name__, str(e)[:80]))
    assert not escapes, "%d escapes, first: %s" % (len(escapes), escapes[:5])
