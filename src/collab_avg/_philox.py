"""Counter-based uniform random number engine (Philox4x64-10).

Every value is a pure function of ``(master_seed, stream_id, draw_index)``:
there is no sequential generator state. Disjoint streams (and disjoint draw
ranges within a stream) can therefore be produced in any order, in chunks of
any size, or on any number of workers, and the output is bit-identical.

Layout
------
* key word 0 = master seed, key word 1 = stream id (both 64-bit).
* counter = (block_index, 0, 0, 0); each block yields four 64-bit words,
  so draw ``i`` of a stream is lane ``i % 4`` of block ``i // 4``.
* A raw 64-bit word ``w`` maps to numpy's ``random()`` value
  ``(w >> 11) * 2**-53`` plus half its step (:func:`uniform_matrix`).

The round function is the standard Philox4x64 with 10 rounds; tests verify
bit-exact agreement with ``numpy.random.Philox`` raw output.

Two generation paths give the same bits. Streams of at least
``_C_MIN_DRAWS`` draws come from a numpy ``Generator`` on numpy's C Philox,
whose key and counter are set for each stream (:func:`_load_generator`);
shorter streams run the rounds below in numpy array arithmetic, vectorized
over all streams at once, because numpy's Philox takes one key per object
and, below a few dozen draws, setting its state for each stream would dominate.
"""

from __future__ import annotations

import functools
import random
import types

import numpy as np

from .distributions import _load_from_extension

_MASK64 = (1 << 64) - 1

# Philox4x64 multipliers and Weyl key increments.
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B

_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)

#: Streams at least this long are drawn by numpy's C Philox. Measured on one
#: core of a 2-core Xeon (numpy 2.4.6), chunks of 65,536 draws, median of 15
#: alternating runs: the vectorized rounds cost 32-39 ns per draw at any
#: stream length, the C path 33 at 48 draws, 30 at 56, 26 at 64, 20 at 96,
#: 13 at 200 and 6 at 7000.
_C_MIN_DRAWS = 64


def _mul_hi_lo(
    a: np.ndarray,
    m: int,
    hi: np.ndarray,
    lo: np.ndarray,
    t0: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
) -> None:
    """Full 64x64 -> 128 bit product of ``a`` with the constant ``m``.

    Writes the high word to ``hi`` and the low word to ``lo``; ``t0..t2``
    are scratch of ``a``'s shape. uint64 array arithmetic wraps modulo
    2**64, which gives the low word directly; the high word is assembled
    from 32-bit limbs.
    """
    m_lo = np.uint64(m & 0xFFFFFFFF)
    m_hi = np.uint64(m >> 32)
    np.multiply(a, np.uint64(m), out=lo)
    np.bitwise_and(a, _LOW32, out=t0)  # a_lo
    np.right_shift(a, _SHIFT32, out=t1)  # a_hi
    # carry = a_hi * m_lo + ((a_lo * m_lo) >> 32)
    np.multiply(t0, m_lo, out=hi)
    np.right_shift(hi, _SHIFT32, out=hi)
    np.multiply(t1, m_lo, out=t2)
    np.add(t2, hi, out=t2)
    # mid = a_lo * m_hi + (carry & 0xFFFFFFFF)
    np.multiply(t0, m_hi, out=t0)
    np.bitwise_and(t2, _LOW32, out=hi)
    np.add(t0, hi, out=t0)
    # hi = a_hi * m_hi + (carry >> 32) + (mid >> 32)
    np.multiply(t1, m_hi, out=hi)
    np.right_shift(t2, _SHIFT32, out=t2)
    np.add(hi, t2, out=hi)
    np.right_shift(t0, _SHIFT32, out=t0)
    np.add(hi, t0, out=hi)


def philox_blocks(
    block_index: np.ndarray,
    key_lo: int,
    key_hi: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run Philox4x64-10 on counters ``(block_index, 0, 0, 0)``.

    ``key_hi`` may be an array (one stream id per row); it broadcasts
    against ``block_index``. Returns the four output lanes.
    """
    # numpy wraps array uint64 arithmetic silently but warns on scalar
    # wrap-around, so key word 1 is kept as an array (0-d for one stream)
    # and key word 0's schedule is computed in Python ints.
    if not isinstance(key_hi, np.ndarray):
        key_hi = np.asarray(key_hi & _MASK64, dtype=np.uint64)
    shape = np.broadcast_shapes(block_index.shape, key_hi.shape)
    # The rounds run in a fixed set of work arrays: four counter words, the
    # two products' high and low words, and three limbs of scratch.
    c0, c1, c2, c3, hi0, lo0, hi1, lo1, t0, t1, t2 = (
        np.empty(shape, dtype=np.uint64) for _ in range(11)
    )
    c0[...] = block_index
    for word in (c1, c2, c3):
        word.fill(0)
    for r in range(10):
        k0 = np.uint64((key_lo + r * _W0) & _MASK64)
        k1 = key_hi + np.uint64((r * _W1) & _MASK64)
        _mul_hi_lo(c0, _M0, hi0, lo0, t0, t1, t2)
        _mul_hi_lo(c2, _M1, hi1, lo1, t0, t1, t2)
        np.bitwise_xor(hi1, c1, out=hi1)
        np.bitwise_xor(hi1, k0, out=hi1)
        np.bitwise_xor(hi0, c3, out=hi0)
        np.bitwise_xor(hi0, k1, out=hi0)
        # New counter: (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0). The old
        # counter words become the next round's product buffers.
        c0, c1, c2, c3, hi1, lo1, hi0, lo0 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    return c0, c1, c2, c3


def uniforms(master_seed: int, stream_id: int, count: int, start: int = 0) -> np.ndarray:
    """Draws ``start .. start+count-1`` of one stream (:func:`uniform_matrix`)."""
    return uniform_matrix(master_seed, stream_id, 1, count, start)[0]


def uniform_matrix(
    master_seed: int, first_stream: int, n_streams: int, count: int, start: int = 0
) -> np.ndarray:
    """Draws ``start .. start+count-1`` for ``n_streams`` consecutive streams.

    Row ``t`` is identical to ``uniforms(master_seed, first_stream + t,
    count, start)``; stream ids wrap modulo 2**64. Both paths give numpy's
    ``random()`` value ``k * 2**-53`` (``k = w >> 11``), and half a step is
    added here: ``(k + 0.5) * 2**-53`` rounded, in (0, 1]. The 2**11
    largest words give exactly 1.0, as ``2**53 - 0.5`` rounds to even.
    """
    if n_streams < 0 or count < 0 or start < 0:
        raise ValueError("n_streams, count and start must be non-negative")
    if n_streams == 0 or count == 0:
        return np.empty((n_streams, count), dtype=np.float64)
    # Both paths draw from the start of start's block: draw i is at column i - 4 * first_block.
    first_block, offset = divmod(start, 4)
    if count >= _C_MIN_DRAWS:
        u = _c_uniform_matrix(master_seed, first_stream, n_streams, offset + count, first_block)
    else:
        n_blocks = (offset + count - 1) // 4 + 1
        blocks = np.arange(first_block, first_block + n_blocks, dtype=np.uint64)[np.newaxis, :]
        stream_ids = (
            (np.uint64(first_stream & _MASK64) + np.arange(n_streams, dtype=np.uint64))
        )[:, np.newaxis]
        lanes = philox_blocks(blocks, master_seed & _MASK64, stream_ids)
        # Draw i is lane i % 4 of block i // 4.
        u = np.empty((n_streams, n_blocks, 4), dtype=np.float64)
        for lane, word in enumerate(lanes):
            np.multiply(np.right_shift(word, 11, out=word), 2.0**-53, out=u[:, :, lane])
        u = u.reshape(n_streams, 4 * n_blocks)
    np.add(u, 2.0**-54, out=u)  # on the whole, contiguous array: on a slice numpy would copy it
    return u[:, offset : offset + count]


@functools.cache
def _load_generator() -> object:
    """The process's one numpy ``Generator`` on a ``Philox``, both loaded from their extensions alone.

    ``import numpy.random`` raises the peak RSS by 5.4 MiB, the two
    extensions with those they import by 1.3 MiB (:func:`_load_from_extension`).
    Most of the rest is ``secrets``, which ``bit_generator`` imports only for
    ``randbits`` and which brings ``hashlib`` and OpenSSL, so a stand-in
    ``secrets`` gives it ``randbits`` as ``Lib/secrets.py`` defines it,
    drawing entropy from the same OS source. A later ``import numpy.random``
    holds these very classes.
    """
    secrets = types.ModuleType("secrets")
    secrets.randbits = random.SystemRandom().getrandbits
    philox = _load_from_extension("numpy.random", "numpy.random._philox", "Philox", secrets=secrets)
    generator = _load_from_extension("numpy.random", "numpy.random._generator", "Generator", secrets=secrets)
    return generator(philox(key=np.zeros(2, dtype=np.uint64)))


def _c_uniform_matrix(
    master_seed: int, first_stream: int, n_streams: int, count: int, first_block: int
) -> np.ndarray:
    """The ``random()`` values of draws ``4 * first_block ..`` of each stream, one stream at a time by numpy's Philox.

    numpy increments its 256-bit counter before producing each block, so
    the counter is set one below the first block (all ones for block 0) and
    its buffer is marked empty. Each call sets the shared ``Philox``'s whole
    state, so nothing carries over from another call.
    """
    out = np.empty((n_streams, count), dtype=np.float64)
    generator = _load_generator()
    bit_gen = generator.bit_generator
    # Python ints masked to 64 bits: the setter takes them faster than
    # uint64 arrays, and no numpy scalar arithmetic can wrap with a warning.
    key = [master_seed & _MASK64, 0]
    counter = [first_block - 1, 0, 0, 0] if first_block else [_MASK64] * 4
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i, row in enumerate(out):
        key[1] = (first_stream + i) & _MASK64
        bit_gen.state = state
        generator.random(out=row)
    return out
