import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajindex.bits import (
    BitVector,
    DacSequence,
    Permutation,
    fixed_chunk_widths,
    optimal_chunk_widths,
    pack_uint_array,
    unpack_uint_array,
)


class TestBitVector:
    def test_known_ranks_and_selects(self):
        bv = BitVector([1, 0, 1, 1, 0])
        assert bv.rank1(5) == 3
        assert bv.rank1(0) == 0
        assert bv.rank0(4) == 1
        assert bv.select1(2) == 3
        assert bv.select0(1) == 2
        assert bv.select1(0) == 0
        assert bv.select0(0) == 0

    def test_single_bit(self):
        assert BitVector([1]).select1(1) == 1

    def test_counts(self):
        bv = BitVector([1, 0, 1, 1, 0])
        assert len(bv) == 5
        assert bv.n_ones == 3

    def test_select_out_of_range(self):
        bv = BitVector([1, 0])
        with pytest.raises(ValueError):
            bv.select1(2)
        with pytest.raises(ValueError):
            bv.select0(2)

    def test_directory_spans_many_blocks(self):
        # force several rank directory blocks
        rng = np.random.default_rng(5)
        bits = (rng.random(5000) < 0.3).astype(np.uint8)
        bv = BitVector(bits)
        pref = np.concatenate([[0], np.cumsum(bits)])
        for p in [0, 1, 511, 512, 513, 1024, 2047, 4999, 5000]:
            assert bv.rank1(p) == pref[p]

    @pytest.mark.parametrize("n", [511, 512, 513, 1500, 5000])
    @pytest.mark.parametrize("fill", ["random", "ones", "zeros"])
    def test_every_position_past_one_superblock(self, n, fill):
        if fill == "random":
            bits = (np.random.default_rng(n).random(n) < 0.4).astype(np.uint8)
        else:
            bits = np.full(n, fill == "ones", dtype=np.uint8)
        bv = BitVector(bits)
        pref = np.concatenate([[0], np.cumsum(bits)])
        assert [bv.rank1(p) for p in range(n + 1)] == pref.tolist()
        assert [bv.bit(p) for p in range(1, n + 1)] == bits.tolist()
        ones = np.flatnonzero(bits) + 1
        zeros = np.flatnonzero(bits == 0) + 1
        assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones.tolist()
        assert [bv.select0(j) for j in range(1, len(zeros) + 1)] == zeros.tolist()
        assert bv.to_bytes() == np.packbits(bits, bitorder="little").tobytes()

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_rank_select_laws(self, bits):
        bv = BitVector(bits)
        ones = sum(bits)
        for j in range(1, ones + 1):
            p = bv.select1(j)
            assert bv.bit(p) == 1
            assert bv.rank1(p) == j
        for j in range(1, len(bits) - ones + 1):
            p = bv.select0(j)
            assert bv.bit(p) == 0
            assert bv.rank0(p) == j
        for p in range(len(bits) + 1):
            assert bv.rank1(p) + bv.rank0(p) == p


class TestChunkWidths:
    def test_small_values_single_level(self):
        assert optimal_chunk_widths([0, 1, 2]) == [2]

    def test_uniform_values_single_level(self):
        assert optimal_chunk_widths([7] * 100) == [3]

    def test_skewed_values_split(self):
        # many tiny values, one huge: a split must beat one wide level
        values = [1] * 1000 + [2**20]
        widths = optimal_chunk_widths(values)
        assert len(widths) > 1
        assert sum(widths) == 21

    @given(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=150).map(sorted)
    )
    def test_optimal_no_worse_than_fixed(self, values):
        opt = DacSequence.optimal(values)
        fix = DacSequence(values, fixed_chunk_widths(values, 8, 4))
        assert opt.bit_size() <= fix.bit_size()


class TestDacSequence:
    def test_two_level_example(self):
        dac = DacSequence.fixed([1, 300, 5], chunk_bits=8, max_levels=2)
        assert dac.to_list().tolist() == [1, 300, 5]
        assert dac.to_list().dtype == np.uint64
        n, widths, levels, conts = dac.parts
        assert n == 3
        assert widths == [8, 8]
        assert levels[0][1] == 44  # low byte of 300
        assert levels[1][0] == 1  # high chunk of 300
        assert conts[0].tolist() == [0, 1, 0]  # only 300 continues

    def test_fixed_respects_level_cap(self):
        dac = DacSequence.fixed([2**23 - 1], chunk_bits=8, max_levels=2)
        _n, widths, levels, _conts = dac.parts
        assert widths == [8, 15] and len(levels) == 2
        assert dac.to_list().tolist() == [2**23 - 1]

    def test_empty(self):
        dac = DacSequence.optimal([])
        assert len(dac) == 0
        assert dac.to_list().tolist() == []

    @given(st.lists(st.integers(0, 2**48), min_size=0, max_size=120))
    def test_access_matches_values(self, values):
        for dac in (
            DacSequence.optimal(values),
            DacSequence.fixed(values, 8, 2),
            DacSequence.fixed(values, 3, 10),
        ):
            assert dac.to_list().tolist() == values


class TestPackedArrays:
    @given(
        st.integers(1, 64).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(st.integers(0, 2**w - 1), min_size=0, max_size=80),
            )
        )
    )
    def test_round_trip(self, wv):
        width, values = wv
        data = pack_uint_array(np.asarray(values, dtype=np.uint64), width)
        out = unpack_uint_array(data, width, len(values))
        assert [int(v) for v in out] == values

    @pytest.mark.parametrize("width", range(1, 65))
    def test_round_trip_every_width(self, width):
        """Every width, the byte-aligned ones read straight from the bytes,
        at counts around a byte's worth of values."""
        rng = np.random.default_rng(width)
        top = np.uint64(2**width - 1)
        for count in (0, 1, 7, 8, 9, 1000):
            values = rng.integers(0, 2**63, count, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
            values &= top
            if count:
                values[0], values[-1] = top, 0
            data = pack_uint_array(values, width)
            assert len(data) == (width * count + 7) // 8
            out = unpack_uint_array(data, width, count)
            assert out.dtype == np.uint64
            assert out.tolist() == values.tolist()


class TestPermutation:
    def test_single_cycle(self):
        perm = Permutation([2, 0, 1])
        assert [perm.apply(i) for i in range(3)] == [2, 0, 1]
        assert [perm.inverse(j) for j in [2, 0, 1]] == [0, 1, 2]

    @pytest.mark.parametrize("seed", [1, 2, 5, 32])
    def test_inverse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        for n in [1, 2, 5, 17, 64, 200]:
            values = rng.permutation(n)
            perm = Permutation(values)
            for i in range(n):
                assert perm.inverse(perm.apply(i)) == i
                assert perm.apply(perm.inverse(i)) == i

    def test_identity_and_reversal(self):
        for values in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0]):
            perm = Permutation(values)
            for i, v in enumerate(values):
                assert perm.apply(i) == v
                assert perm.inverse(v) == i

    def test_raw_preserved(self):
        perm = Permutation([3, 1, 2, 0])
        assert [int(v) for v in perm.raw] == [3, 1, 2, 0]
