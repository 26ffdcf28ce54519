"""Canonical texts against the encoder they used to come from.

The canonical serializer renders through one C encoder built at import,
with no circular-reference markers; ``serialize`` skips the encode walk
for plain data, and ``serialized_size`` measures ASCII text without a
UTF-8 copy. Each must still produce the text of the reference definition,
``json.JSONEncoder(sort_keys=True).encode`` over ``_encode``'s walk, on
every value hypothesis draws (derandomized, so tier-1 stays
deterministic), and must fail the same way on a cyclic value.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability.journal import Journal, record_hash
from repro.util.serialization import (
    _canonical_dumps,
    _encode,
    serialize,
    serialize_call,
    serialized_size,
)

_reference_dumps = json.JSONEncoder(sort_keys=True).encode


def reference(value):
    """The canonical text as every earlier version rendered it."""
    return _reference_dumps(_encode(value))


# -- strategies -------------------------------------------------------------

_BIG = 2**63

_ints = st.one_of(
    st.integers(),
    st.integers(min_value=_BIG, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-_BIG),
)
# every float: -0.0, subnormals, huge exponents, nan and both infinities
_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# any code point, with control characters and lone surrogates drawn often
_texts = st.text(
    st.one_of(st.characters(), st.sampled_from("\x00\x1f\x7f\ud800\udfff\u2028")),
    max_size=20,
)

_scalars = st.one_of(_ints, _floats, _texts, st.booleans(), st.none())
_set_items = st.one_of(_ints, _texts, st.booleans(), st.none())

_values = st.recursive(
    st.one_of(
        _scalars,
        st.binary(max_size=12),
        st.frozensets(_set_items, max_size=4).map(set),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_texts, children, max_size=4),
        st.dictionaries(_ints, children, max_size=4),
    ),
    max_leaves=12,
)

# the shapes with a shortcut of their own: flat lists and dicts
_flat = st.one_of(
    st.lists(_scalars, max_size=6),
    st.dictionaries(_texts, _scalars, max_size=6),
    st.dictionaries(_ints, _scalars, max_size=6),
)

_SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e22, 1e16, 0.1,
    float("nan"), float("inf"), float("-inf"),
]


def _check(value) -> None:
    text = reference(value)
    assert serialize(value) == text
    assert _canonical_dumps(_encode(value)) == text
    assert serialized_size(value) == len(text.encode("utf-8"))


class TestSerializeAgainstReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(value=_values)
    @example(value=2**64)
    @example(value=-(2**70))
    @example(value=[2**63, -(2**63) - 1])
    @example(value=_SPECIAL_FLOATS)
    @example(value={"nan": float("nan"), "inf": float("inf")})
    @example(value="naïve — 日本語 ☃ \U0001F600")
    @example(value="\x00\x1f\n\t\"\\\x7f\ud800")
    @example(value=[True, False, None])
    @example(value=[])
    @example(value={})
    @example(value=())
    @example(value=b"")
    @example(value=set())
    @example(value={10: "ten", 9: "nine", 100: "hundred"})
    @example(
        value={"tuple": (1, "two", 3.0, (4,)), "bytes": b"\x00\xff", "set": {3, 1, 2}}
    )
    @example(value=[[1, 2], {"b": 2, "a": (1,)}])
    def test_serialize_and_size(self, value):
        _check(value)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(value=_flat)
    def test_flat_shortcut(self, value):
        _check(value)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(value=_scalars)
    @example(value=float("nan"))
    @example(value=float("-inf"))
    @example(value=-0.0)
    @example(value=5e-324)
    @example(value=1e22)
    def test_scalars(self, value):
        _check(value)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        args=st.lists(_values, max_size=4).map(tuple),
        kwargs=st.dictionaries(_texts, _values, max_size=3),
    )
    @example(args=(1, 2.5, "x", None, True), kwargs={})
    @example(args=(2**64, float("nan")), kwargs={"k": -0.0})
    @example(args=((1, 2), b"\x00"), kwargs={"nested": {"a": [1, {2}]}})
    # one non-plain value after plain ones must still take the encode walk
    @example(args=(1, b"\x00"), kwargs={})
    @example(args=(1, (2,)), kwargs={})
    @example(args=(1, {3}), kwargs={})
    @example(args=(1, [(2,)]), kwargs={})
    @example(args=(1,), kwargs={"a": "plain", "blob": b"\x01"})
    @example(args=(), kwargs={"a": 1, "t": (1,)})
    @example(args=(), kwargs={"a": 1, "s": {"x"}})
    @example(args=("ключ",), kwargs={"é": "\U0001F600"})
    def test_serialize_call(self, args, kwargs):
        text = reference({"args": list(args), "kwargs": kwargs})
        assert serialize_call(args, kwargs) == text
        assert serialize({"args": list(args), "kwargs": kwargs}) == text


class TestJournalTexts:
    """``Journal.append`` hashes a chain text it assembles from the kind,
    time and data texts; it must be the text ``record_hash`` defines."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kind=_texts, time=st.one_of(_floats, _ints, st.booleans()))
    @example(kind='a "quoted"\nkind', time=8.0)
    @example(kind="intkeys", time=float("nan"))
    @example(kind="task.submitted", time=3)
    @example(kind="task.submitted", time=True)
    @example(kind="naïve \U0001F600 \ud800", time=float("-inf"))
    @example(kind="", time=-0.0)
    @example(kind="x", time=2**70)
    def test_record_hash_is_the_reference_definition(self, kind, time):
        journal = Journal()
        record = journal.append(kind, time, {"n": 1})
        assert record.hash == record_hash(
            record.seq, time, kind, record.data, record.prev_hash
        )
        journal.verify()
        if not (isinstance(time, float) and math.isnan(time)):
            assert record.time == time


def _cycles():
    loop: list = []
    loop.append(loop)
    knot: dict = {}
    knot["self"] = knot
    return loop, knot


class TestCyclicPayloads:
    """A cyclic value recurses forever in ``_encode`` before it reaches the
    marker-free encoder, so every entry point raises ``RecursionError``,
    as it did when the encoder kept circular-reference markers."""

    def test_serializers_raise_recursion_error(self):
        loop, knot = _cycles()
        for value in (loop, knot, [loop], {"a": knot}, (loop,)):
            with pytest.raises(RecursionError):
                serialize(value)
            with pytest.raises(RecursionError):
                serialized_size(value)
        with pytest.raises(RecursionError):
            serialize_call((loop,), {})
        with pytest.raises(RecursionError):
            serialize_call((), {"knot": knot})

    def test_journal_append_raises_recursion_error(self):
        loop, knot = _cycles()
        journal = Journal()
        for data in ({"loop": loop}, {"knot": knot}):
            with pytest.raises(RecursionError):
                journal.append("task.completed", 1.0, data)
        assert len(journal) == 0
