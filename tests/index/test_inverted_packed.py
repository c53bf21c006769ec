"""Tests for the columnar (packed) posting lists."""

from array import array

from repro.index.inverted import InvertedList, PackedInvertedList
from repro.xmltree.dewey_packed import DeweyPacker


def packed_pair(codes):
    """A tuple list and its packed twin over the same postings."""
    ordered = sorted(set(codes))
    source = InvertedList(
        "tok", [(code, i % 3, i + 1) for i, code in enumerate(ordered)]
    )
    packer = DeweyPacker.for_codes(ordered)
    return source, PackedInvertedList.from_inverted(source, packer), packer


class TestPacking:
    def test_columns_parallel(self):
        source, packed, packer = packed_pair([(1,), (1, 2), (3,)])
        assert len(packed) == len(source)
        for i, (code, pid, tf) in enumerate(source):
            assert packed.keys[i] == packer.pack(code)
            assert packed.path_ids[i] == pid
            assert packed.tfs[i] == tf

    def test_int64_column_uses_array(self):
        _source, packed, packer = packed_pair([(1,), (2, 3)])
        assert packer.fits_int64
        assert isinstance(packed.keys, array)
        assert packed.keys.typecode == "q"

    def test_wide_keys_fall_back_to_list(self):
        codes = [tuple([1] * 12), tuple([2] * 12), (2**40, 5)]
        ordered = sorted(codes)
        source = InvertedList(
            "tok", [(c, 0, 1) for c in ordered]
        )
        packer = DeweyPacker.for_codes(ordered)
        assert not packer.fits_int64
        packed = PackedInvertedList.from_inverted(source, packer)
        assert isinstance(packed.keys, list)
        assert list(packed.keys) == sorted(packed.keys)

