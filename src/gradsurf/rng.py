"""Counter-addressed random streams.

Every draw is a pure function of (seed, stream_id, counter), which is what
coupling-from-the-past needs: randomness at absolute time -t must be
reproducible when the algorithm looks further into the past, and distinct
chains get independent streams by stream_id.

The function is numpy's: ``RngStream.at(t)`` is a ``Generator`` on the
Philox4x64-10 counter-based generator (Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), keyed by
``SeedSequence((seed, stream_id, lo, hi)).generate_state(2, uint64)``,
where each entry is masked to 64 bits and (lo, hi) are the two 64-bit
halves of the counter taken modulo 2^128.  The Philox counter starts at 0
and is incremented before each block of four 64-bit outputs, and
``random()`` turns each output x into the double (x >> 11) * 2^-53.

``block(streams, counters, size)`` returns many (stream, counter) rows at
once, row k bit for bit ``streams[k].at(counters[k]).random(size)``.  On
many short rows (an epoch of coupled CFTP sweeps, the sweeps of a
thermodynamic integration) it computes the function in one numpy pass
(``_vectorised``): SeedSequence's uint32 hash-mix, Philox4x64-10 with its
64x64 -> 128-bit products split into 32-bit limbs, and the double
conversion.  That pass costs about a dozen ``at`` calls and is slower per
double than numpy's C generator, so fewer or longer rows are drawn with
``at``.  ``tests/test_rng.py`` checks both paths against ``at`` on random
seeds, stream ids and 128-bit counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def at(self, counter: int) -> np.random.Generator:
        """Deterministic generator addressed by a 128-bit counter."""
        c = counter & _MASK128
        entropy = (
            self.seed & _MASK64,
            self.stream_id & _MASK64,
            c & _MASK64,
            (c >> 64) & _MASK64,
        )
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def substream(self, k: int) -> "RngStream":
        return RngStream(self.seed, (self.stream_id * 1_000_003 + k + 1) & _MASK64)


# One vectorised call costs about as much as a dozen ``at`` draws, and each
# double it makes about 1/300 of one (numpy 2.4 on x86-64): it pays on many
# short rows, and ``at`` draws fewer or longer ones.
_CALL_DRAWS, _DRAW_DOUBLES = 12, 300


def block(streams, counters, size: int) -> np.ndarray:
    """The (K, size) doubles whose row k is, bit for bit,
    ``streams[k].at(counters[k]).random(size)``: one numpy pass over all
    rows (``_vectorised``) where that costs less than drawing them one by
    one with ``at``, else the ``at`` draws."""
    if len(streams) * (1 - size / _DRAW_DOUBLES) <= _CALL_DRAWS:
        rows = [stream.at(counter).random(size) for stream, counter in zip(streams, counters)]
        return np.array(rows, dtype=np.float64).reshape(len(streams), size)
    return _vectorised(streams, counters, size)


def _vectorised(streams, counters, size: int) -> np.ndarray:
    """``block`` in one numpy pass: the seed hash, Philox and the doubles
    of every row at once."""
    try:
        lo = np.array(counters, dtype=np.int64)
        hi = np.where(lo < 0, np.uint64(_MASK64), np.uint64(0))
        lo = lo.view(np.uint64)
    except OverflowError:
        wide = [c & _MASK128 for c in counters]
        lo = np.array([c & _MASK64 for c in wide], dtype=np.uint64)
        hi = np.array([c >> 64 for c in wide], dtype=np.uint64)
    key = _seed_key(_low64([s.seed for s in streams]), _low64([s.stream_id for s in streams]), lo, hi)
    return _philox_doubles(key, size)


def _low64(values) -> np.ndarray:
    """The Python ints ``values`` masked to 64 bits, as uint64."""
    try:
        return np.array(values, dtype=np.int64).view(np.uint64)
    except OverflowError:
        return np.array([v & _MASK64 for v in values], dtype=np.uint64)


# SeedSequence's constants (numpy/random/bit_generator.pyx).  The hash
# constant advances once per hashmix call whatever the data, so the k-th
# call's pair (xor, multiplier) is a fixed table entry.  Constants are 0-d
# arrays, which numpy applies faster than scalars.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.array(0xCA01F9DD, dtype=np.uint32), np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)
_POOL = 4
_MAX_WORDS = 8  # four 64-bit entropy values, one or two uint32 words each


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# hashmix calls: the pool fill, the all-to-all mix, then the words past
# the pool, each mixed into every pool word
_HASH_A = _powers(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1) + (_MAX_WORDS - _POOL) * _POOL)
_HASH_B = _powers(_INIT_B, _MULT_B, 2 * 2)
_OTHERS = [np.array([d for d in range(_POOL) if d != src]) for src in range(_POOL)]


def _xorshift(x: np.ndarray) -> np.ndarray:
    x ^= x >> _XSHIFT
    return x


def _hashmix(values: np.ndarray, first: int, count: int) -> np.ndarray:
    """Hashmix calls first .. first + count - 1 on ``values`` (the last axis
    broadcasts against the calls)."""
    return _xorshift((values ^ _HASH_A[first : first + count]) * _HASH_A[first + 1 : first + count + 1])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_L * x - _MIX_R * y)


def _seed_key(seed, stream, lo, hi) -> np.ndarray:
    """The (2, K, 1) Philox keys ``SeedSequence((seed, stream, lo, hi))
    .generate_state(2, uint64)`` of the K rows of uint64 entropy values."""
    # each value is one uint32 word below 2^32 (0 included) and two above;
    # a row's words are its values' words in order, zero-padded
    values = np.stack((seed, stream, lo, hi), axis=1)
    pairs = np.stack((values & np.uint64(_MASK32), values >> np.uint64(32)), axis=2).reshape(-1, _MAX_WORDS)
    kept = pairs != 0
    kept[:, 0::2] = True
    words = np.take_along_axis(pairs, np.argsort(~kept, axis=1, kind="stable"), axis=1).astype(np.uint32)
    length = kept.sum(axis=1)
    pool = _hashmix(words[:, :_POOL], 0, _POOL)
    call = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], call, len(dst)))
        call += len(dst)
    for src in range(_POOL, int(length.max())):
        mixed = _mix(pool, _hashmix(words[:, src, None], call, _POOL))
        pool = np.where((length > src)[:, None], mixed, pool)
        call += _POOL
    # generate_state(2, uint64): four words from the cycled pool, paired
    # little-endian
    state = _xorshift((pool ^ _HASH_B[:_POOL]) * _HASH_B[1 : _POOL + 1]).astype(np.uint64)
    return (state[:, 0::2] | state[:, 1::2] << np.uint64(32)).T[:, :, None]


# Philox4x64-10 (Random123's philox.h, as numpy ships it)
_ROUNDS = 10
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_M_LO, _M_HI = _PHILOX_M & np.uint64(_MASK32), _PHILOX_M >> np.uint64(32)
# the key of each round: round r uses key + r * (W0, W1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None] * np.arange(
    _ROUNDS, dtype=np.uint64
)[:, None, None, None]
_LOW, _HIGH = np.array(_MASK32, dtype=np.uint64), np.array(32, dtype=np.uint64)


def _philox_doubles(key: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` doubles of each row's Philox stream, under the
    (2, K, 1) keys, from counters 1, 2, ... of four outputs each."""
    blocks = -(-size // 4)
    shape = (2, key.shape[1], blocks)
    # operands of one shape: numpy multiplies them faster than broadcast ones
    m, m_lo, m_hi = (np.broadcast_to(c, shape).copy() for c in (_PHILOX_M, _M_LO, _M_HI))
    keys = np.broadcast_to(key + _PHILOX_W, (_ROUNDS, *shape)).copy()
    # the words (v0, v2) and (v1, v3) of each counter
    x = np.zeros(shape, dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    y = np.zeros_like(x)
    for k in keys:
        # the high word of M * x from 32-bit limbs; no partial sum overflows
        x_lo, x_hi = x & _LOW, x >> _HIGH
        mid = m_lo * x_hi + (m_lo * x_lo >> _HIGH)
        mid2 = m_hi * x_lo + (mid & _LOW)
        hi = m_hi * x_hi + (mid >> _HIGH) + (mid2 >> _HIGH)
        # v0 = hi1 ^ v1 ^ k0, v1 = lo1, v2 = hi0 ^ v3 ^ k1, v3 = lo0
        x, y = hi[::-1] ^ y ^ k, (m * x)[::-1]
    out = np.empty((key.shape[1], blocks, 4), dtype=np.uint64)
    out[..., 0::2] = x.transpose(1, 2, 0)
    out[..., 1::2] = y.transpose(1, 2, 0)
    out = out.reshape(key.shape[1], 4 * blocks)[:, :size]
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
