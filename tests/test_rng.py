import random

import numpy as np
import pytest

from gradsurf import rng
from gradsurf.rng import RngStream, block

from oracles import at_rows

_MASK64 = (1 << 64) - 1


def test_counter_addressed_determinism():
    s = RngStream(42, 0)
    a = s.at(5).random(16)
    b = s.at(5).random(16)
    assert (a == b).all()


def test_distinct_counters_differ():
    s = RngStream(42, 0)
    a = s.at(5).random(16)
    c = s.at(6).random(16)
    assert not (a == c).all()


def test_negative_counters_supported():
    s = RngStream(42, 0)
    a = s.at(-3).random(16)
    b = s.at(-3).random(16)
    assert (a == b).all()
    assert not (a == s.at(-4).random(16)).all()


def test_streams_share_no_prefixes():
    draws = [RngStream(7, sid).at(0).random(64) for sid in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            assert not (draws[i][:8] == draws[j][:8]).all()


def test_substreams_distinct():
    s = RngStream(3, 1)
    subs = [s.substream(k) for k in range(4)]
    ids = {sub.stream_id for sub in subs}
    assert len(ids) == 4
    draws = [sub.at(0).random(8) for sub in subs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (draws[i] == draws[j]).all()


def _same_bits(a, b):
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


def _check_rows(streams, counters, size):
    """block and its one-pass path both give at_rows, bit for bit."""
    expected = at_rows(streams, counters, size)
    assert _same_bits(block(streams, counters, size), expected)
    assert _same_bits(rng._vectorised(streams, counters, size), expected)


_COUNTERS = [0, 1, -1, 1 << 32, 1 << 64, -(1 << 70)]


def _value(r):
    # 0, one word, two words, and the negatives that mask to 64 bits
    return r.choice([0, r.randrange(1, 1 << 32), r.randrange(1 << 32, 1 << 64), -r.randrange(1, 1 << 64), r.getrandbits(64)])


def test_block_equals_at_rows():
    # block's rows against one generator per row: random 64-bit seeds and
    # stream ids (negatives are masked), every word-count pattern, 128-bit
    # counters, sizes that are not multiples of 4, mixed streams in one call
    r = random.Random(2024)
    patterns = set()
    for trial in range(200):
        k = 1 if trial % 10 == 0 else r.randint(2, 30)
        streams = [RngStream(_value(r), _value(r)) for _ in range(k)]
        counters = [r.choice(_COUNTERS + [(1 << 127) + r.randrange(1000), r.randrange(-999, 999)]) for _ in range(k)]
        _check_rows(streams, counters, r.randint(1, 40))
        for s, c in zip(streams, counters):
            c &= (1 << 128) - 1
            values = (s.seed & _MASK64, s.stream_id & _MASK64, c & _MASK64, c >> 64)
            patterns.add(tuple(v >= 1 << 32 for v in values))
    assert len(patterns) == 16


def test_block_edge_counters_and_sizes():
    streams = [RngStream(0), RngStream((1 << 32) - 1, 1 << 32), RngStream(-1, -7), RngStream(0)]
    for counter in _COUNTERS + [(1 << 127) + 12345, (1 << 128) + 3, -(1 << 127)]:
        for size in (0, 1, 3, 4, 5, 8, 17, 40):
            _check_rows(streams, [counter, counter, counter, counter + 1], size)
    assert block([], [], 5).shape == (0, 5)
    with pytest.raises(ValueError):
        rng._vectorised(streams, [0], 4)


def test_block_draws_many_short_rows_in_one_pass(monkeypatch):
    # one numpy pass where it costs less than one generator per row: many
    # short rows, not a few rows or long ones
    passes = []
    vectorised = rng._vectorised
    monkeypatch.setattr(rng, "_vectorised", lambda *args: passes.append(len(args[1])) or vectorised(*args))
    stream = RngStream(9, 2)
    for rows, size in ((1, 4), (12, 4), (13, 4), (200, 4), (840, 15), (8, 1024), (200, 400)):
        streams, counters = [stream] * rows, range(-rows, 0)
        assert _same_bits(block(streams, counters, size), at_rows(streams, counters, size))
    assert passes == [13, 200, 840]
