"""The numpy trace analyses against the tuple loops they replaced.

``tests/reference_trace.py`` keeps the loops over one ``GetRecord`` per
get.  Streams drawn here reuse a few ``(trg, dsp)`` keys at sizes that grow
and shrink, so keys enter, stay in and leave the ``tau`` window; every
analysis must return what the loops return, value for value.
"""

from __future__ import annotations

import numpy as np
import reference_trace as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    GetStream,
    recommend_parameters,
    reuse_fraction,
    reuse_histogram,
    size_distribution,
    working_set_bytes,
    working_set_sizes,
)

gets = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([0, 8, 64, 72]), st.integers(0, 300)),
    max_size=60,
)


def stream_of(rows) -> GetStream:
    return GetStream(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def assert_same_analyses(stream: GetStream, tau: int) -> None:
    records = ref.records_of(stream)
    assert reuse_histogram(stream) == ref.reuse_histogram(records)
    assert reuse_fraction(stream) == ref.reuse_fraction(records)
    for new, old in zip(size_distribution(stream), ref.size_distribution(records)):
        assert new.tolist() == old.tolist()
    for new, old in [
        (working_set_sizes(stream, tau), ref.working_set_sizes(records, tau)),
        (working_set_bytes(stream, tau), ref.working_set_bytes(records, tau)),
    ]:
        assert new.dtype == old.dtype and new.tolist() == old.tolist()


@settings(max_examples=300, deadline=None)
@given(rows=gets, tau=st.integers(1, 70))
def test_analyses_are_the_loops(rows, tau):
    assert_same_analyses(stream_of(rows), tau)


@settings(max_examples=200, deadline=None)
@given(
    rows=gets,
    tau=st.one_of(st.none(), st.integers(1, 70)),
    headroom=st.floats(1.0, 3.0),
    min_index=st.integers(1, 128),
    min_storage=st.integers(1, 4096),
)
def test_recommendation_is_the_loops(rows, tau, headroom, min_index, min_storage):
    stream = stream_of(rows)
    kwargs = dict(tau=tau, headroom=headroom, min_index=min_index, min_storage=min_storage)
    assert recommend_parameters(stream, **kwargs) == ref.recommend_parameters(
        ref.records_of(stream), **kwargs
    )


def test_empty_stream_tau_one_and_tau_past_the_end():
    empty = stream_of([])
    for tau in (1, 5):
        assert_same_analyses(empty, tau)
    assert recommend_parameters(empty) == ref.recommend_parameters([])
    rows = [(1, 8 * (i % 4), 16 * i) for i in range(12)]
    for tau in (1, 11, 12, 13, 100):
        assert_same_analyses(stream_of(rows), tau)


def test_one_key_growing_and_shrinking():
    """While the key stays in the window its largest size counts, even
    after that get slid out; once the key leaves, it re-enters at the
    size it comes back with."""
    sizes = [100, 400, 50, 50, 50, 50, 300, 20]
    stream = stream_of([(0, 0, s) for s in sizes])
    for tau in (1, 2, 3, 8):
        assert_same_analyses(stream, tau)
    gaps = stream_of([(0, 0, 400), (0, 8, 8), (0, 8, 8), (0, 0, 100)])
    assert working_set_bytes(gaps, 2).tolist() == [400, 408, 8, 108]
    assert working_set_bytes(gaps, 3).tolist() == [400, 408, 408, 408]
    assert_same_analyses(gaps, 2)
