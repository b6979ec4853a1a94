"""``stable_order`` is ``np.lexsort`` with the keys in reading order.

The engine's one stable sort builds its permutation from ``uint16`` radix
passes where a key's value span allows and from a stable ``argsort``
otherwise.  None of that may show: for every key kind — each integer dtype
at its extremes, spans on both sides of ``2**16`` and ``2**32``, ``bool``,
floats with NaN, signed zeros and infinities, objects — and for zero and one
row, the permutation must equal ``np.lexsort(keys[::-1])``.  The radix
passes run here on inputs of any size: ``RADIX_MIN_ROWS``, below which
``stable_order`` hands small inputs to ``np.lexsort`` itself, is set to 0.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relalg.encoding as encoding
from repro.relalg.encoding import stable_order

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
SPANS = [2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 1]
SPECIAL_FLOATS = [np.nan, 0.0, -0.0, np.inf, -np.inf]


@st.composite
def integer_key(draw, rows):
    """An integer key: arbitrary values of its dtype, its two extremes, or
    values pinned to both ends of a span around a radix boundary."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    shape = draw(st.sampled_from(["any", "extremes", "span"]))
    spans = [span for span in SPANS if span <= int(info.max) - int(info.min)]
    if shape == "span" and spans:
        span = draw(st.sampled_from(spans))
        low = draw(st.integers(int(info.min), int(info.max) - span))
        values = st.sampled_from([low, low + span]) | st.integers(low, low + span)
    elif shape == "extremes":
        values = st.sampled_from([int(info.min), int(info.max)])
    else:
        values = st.integers(int(info.min), int(info.max))
    return np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype)


@st.composite
def any_key(draw, rows):
    kind = draw(st.sampled_from(["int", "bool", "float", "object"]))
    if kind == "int":
        return draw(integer_key(rows))
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    if kind == "float":
        values = st.sampled_from(SPECIAL_FLOATS) | st.floats(-3, 3).map(round)
        return np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=np.float64)
    values = st.sampled_from(["", "a", "b", "ab"])
    return np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=object)


@st.composite
def key_sets(draw):
    rows = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    return [draw(any_key(rows)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=400, deadline=None)
@given(keys=key_sets())
def test_stable_order_is_lexsort_with_the_keys_in_reading_order(keys):
    with mock.patch.object(encoding, "RADIX_MIN_ROWS", 0):
        got = stable_order(*keys)
    want = np.lexsort(keys[::-1])
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_extremes_of_every_integer_dtype(monkeypatch, dtype):
    monkeypatch.setattr(encoding, "RADIX_MIN_ROWS", 0)
    info = np.iinfo(dtype)
    key = np.array([info.max, info.min, info.max, 0, info.min, 1], dtype=dtype)
    assert stable_order(key).tolist() == np.lexsort((key,)).tolist()


@pytest.mark.parametrize(
    "span, sorted_dtypes",
    [
        (2**16 - 1, ["uint16"]),
        (2**16, ["uint16", "uint16"]),
        (2**32 - 1, ["uint16", "uint16"]),
        (2**32, ["int64"]),
    ],
)
def test_the_value_span_picks_the_passes(monkeypatch, make_rng, span, sorted_dtypes):
    key = make_rng(3).integers(-5, span - 5, size=encoding.RADIX_MIN_ROWS, endpoint=True)
    key[:2] = -5, span - 5
    dtypes, argsort = [], np.argsort

    def recording(array, *args, **kwargs):
        dtypes.append(array.dtype.name)
        return argsort(array, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    got = stable_order(key)
    assert dtypes == sorted_dtypes
    assert got.tolist() == np.lexsort((key,)).tolist()


def test_fewer_rows_than_the_radix_minimum_take_lexsort(monkeypatch):
    key = np.arange(encoding.RADIX_MIN_ROWS - 1)[::-1].copy()
    monkeypatch.setattr(np, "argsort", None)  # the radix passes would call it
    assert stable_order(key, key).tolist() == np.lexsort((key, key)).tolist()
