"""Property-based tests for SimFile's block store (hypothesis).

Reads copy straight from the file's blocks into the caller's buffers
(``read_into``); ``read_at`` is the same copy into one fresh array.  Both
must give the bytes a flat model of the writes holds, with zeros in holes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.filesystem import _BLOCK, SimFile

SPAN = 4 * _BLOCK

writes_st = st.lists(
    st.tuples(st.integers(0, SPAN - 1), st.integers(1, _BLOCK + _BLOCK // 2)),
    min_size=1, max_size=5)


def _apply(writes):
    """Write each ``(offset, length)`` in the order given to a SimFile and
    to a flat model; returns both."""
    f = SimFile("/p", record_data=True)
    model = bytearray(max(off + n for off, n in writes))
    for i, (off, n) in enumerate(writes):
        payload = np.random.default_rng(i).integers(0, 256, n, dtype=np.uint8)
        f.write_at(off, n, payload)
        model[off:off + n] = payload.tobytes()
    return f, model


@settings(max_examples=30, deadline=None)
@given(writes=writes_st, data=st.data())
def test_read_into_places_matches_read_at(writes, data):
    f, model = _apply(writes)
    assert f.size == len(model)
    assert f.read_at(0, f.size).tobytes() == bytes(model)
    lo = data.draw(st.integers(0, f.size), label="window start")
    hi = data.draw(st.integers(lo, f.size), label="window end")
    window = f.read_at(lo, hi - lo).tobytes()
    spans = data.draw(st.lists(
        st.tuples(st.integers(0, f.size), st.integers(0, 2 * _BLOCK)),
        max_size=4), label="places")
    places = [(start, length, memoryview(bytearray(b"\xee" * length)))
              for start, length in spans]
    f.read_into(lo, hi - lo, places)
    for start, length, dest in places:
        a, b = max(lo, start), min(hi, start + length)
        got = dest.tobytes()
        if a >= b:
            assert got == b"\xee" * length
            continue
        assert got[a - start:b - start] == window[a - lo:b - lo]
        assert got[:a - start] == b"\xee" * (a - start)
        assert got[b - start:] == b"\xee" * (start + length - b)


@settings(max_examples=30, deadline=None)
@given(writes=writes_st)
def test_holes_read_as_zeros(writes):
    f, model = _apply(writes)
    blocks = f._blocks
    for index in range(-(-f.size // _BLOCK)):
        if index < len(blocks) and blocks[index] is not None:
            continue
        lo, hi = index * _BLOCK, min((index + 1) * _BLOCK, f.size)
        dest = memoryview(bytearray(b"\xff" * (hi - lo)))
        f.read_into(lo, hi - lo, [(lo, hi - lo, dest)])
        assert dest.tobytes() == bytes(hi - lo) == model[lo:hi]


def test_hole_between_blocks_reads_as_zeros():
    f = SimFile("/p", record_data=True)
    f.write_at(2 * _BLOCK + 10, 5, np.full(5, 7, dtype=np.uint8))
    assert f.allocated == _BLOCK          # only the written block exists
    out = f.read_at(0, f.size)
    assert not out[:2 * _BLOCK + 10].any()
    assert (out[2 * _BLOCK + 10:] == 7).all()


def test_sized_only_file_copies_nothing():
    f = SimFile("/p", record_data=False)
    f.write_at(0, 100, None)
    dest = memoryview(bytearray(b"\x01" * 100))
    f.read_into(0, 100, [(0, 100, dest)])
    assert dest.tobytes() == b"\x01" * 100
    assert f.read_at(0, 100) is None
