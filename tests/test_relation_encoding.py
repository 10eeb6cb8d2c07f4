"""Tests for repro.relation.encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relation import MISSING, Codec, CodecError


class TestCodec:
    def test_fit_first_seen_order(self):
        codec = Codec.fit(["b", "a", "b", "c"])
        assert codec.values == ("b", "a", "c")
        assert codec.encode_one("a") == 1

    def test_fit_skips_none(self):
        codec = Codec.fit(["x", None, "y"])
        assert codec.values == ("x", "y")

    def test_duplicate_values_rejected(self):
        with pytest.raises(CodecError, match="duplicate"):
            Codec(["a", "a"])

    def test_none_encodes_to_missing(self):
        codec = Codec(["a"])
        assert codec.encode_one(None) == MISSING
        assert codec.decode_one(MISSING) is None

    def test_unknown_value_raises(self):
        codec = Codec(["a"])
        with pytest.raises(CodecError, match="not in codec"):
            codec.encode_one("zzz")

    def test_out_of_range_code_raises(self):
        codec = Codec(["a"])
        with pytest.raises(CodecError, match="out of range"):
            codec.decode_one(5)

    def test_encode_array_roundtrip(self):
        codec = Codec(["x", "y", "z"])
        data = ["z", "x", None, "y"]
        codes = codec.encode(data)
        assert codes.dtype == np.int32
        assert codec.decode(codes) == data

    def test_extend_appends_new_values(self):
        codec = Codec(["a"])
        extended = codec.extend(["b", "a", None])
        assert extended.values == ("a", "b")
        # Old codes stay stable.
        assert extended.encode_one("a") == codec.encode_one("a")

    def test_extend_appends_repeated_new_values_once(self):
        # Regression: a repeat among the new values used to reach the
        # Codec constructor and raise "duplicate categorical value".
        extended = Codec(["a"]).extend(["y", "b", "y", "b"])
        assert extended.values == ("a", "y", "b")

    def test_extend_noop_returns_self(self):
        codec = Codec(["a", "b"])
        assert codec.extend(["a"]) is codec

    def test_contains_len_equality(self):
        codec = Codec(["a", "b"])
        assert "a" in codec and "c" not in codec
        assert len(codec) == 2
        assert codec == Codec(["a", "b"])
        assert codec != Codec(["b", "a"])

    def test_mixed_value_types(self):
        codec = Codec.fit([1, "one", True])
        assert codec.decode_one(codec.encode_one("one")) == "one"
        assert codec.decode_one(codec.encode_one(1)) == 1


@given(st.lists(st.text(max_size=6) | st.integers(-5, 5), max_size=40))
def test_codec_roundtrip_property(values):
    codec = Codec.fit(values)
    # Dedup semantics may merge 1/True; restrict to values the codec holds.
    holdable = [v for v in values if v in codec]
    codes = codec.encode(holdable)
    assert codec.decode(codes) == holdable


@given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
def test_codec_codes_are_dense(values):
    codec = Codec.fit(values)
    codes = sorted({codec.encode_one(v) for v in values})
    assert codes == list(range(codec.cardinality))
