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
* A raw 64-bit word ``w`` maps to the open unit interval via
  ``((w >> 11) + 0.5) * 2**-53``, which never returns exactly 0.0 or 1.0.

The round function is the standard Philox4x64 with 10 rounds; tests verify
bit-exact agreement with ``numpy.random.Philox`` raw output.

Two generation paths give the same bits. Streams of at least
``_C_MIN_DRAWS`` draws come from numpy's C Philox, moved from stream to
stream by setting its key and counter; shorter streams run the rounds below
in numpy array arithmetic, vectorized over all streams at once, because
numpy's Philox takes one key per object and, below a few dozen draws, the
Python work of setting its state and drawing each stream would dominate.
The C Philox is loaded from its extension alone (:func:`_load_philox`), not
with the rest of ``numpy.random``.
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
#: runs alternating the paths: the vectorized rounds cost 36-40 ns per draw
#: at any stream length, the C path 44 at 48 draws, 34 at 64, 24 at 96, 15
#: at 200 and 7 at 7000.
_C_MIN_DRAWS = 64

#: Raw words the C path gathers from its streams before converting them to
#: floats in one go (64 KiB); a longer stream is gathered alone.
_GROUP_WORDS = 8_192


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


def _to_unit(words: np.ndarray, out: np.ndarray) -> None:
    """Write raw words ``w`` to ``out`` as ``((w >> 11) + 0.5) * 2**-53``, in (0, 1); ``words`` is overwritten."""
    np.right_shift(words, np.uint64(11), out=words)
    np.add(words, 0.5, out=out)
    np.multiply(out, 2.0**-53, out=out)


def uniforms(master_seed: int, stream_id: int, count: int, start: int = 0) -> np.ndarray:
    """Draws ``start .. start+count-1`` of one stream, as floats in (0, 1)."""
    return uniform_matrix(master_seed, stream_id, 1, count, start)[0]


def uniform_matrix(
    master_seed: int, first_stream: int, n_streams: int, count: int, start: int = 0
) -> np.ndarray:
    """Draws ``start .. start+count-1`` for ``n_streams`` consecutive streams.

    Row ``t`` is identical to ``uniforms(master_seed, first_stream + t,
    count, start)``; stream ids wrap modulo 2**64.
    """
    if n_streams < 0 or count < 0 or start < 0:
        raise ValueError("n_streams, count and start must be non-negative")
    if n_streams == 0 or count == 0:
        return np.empty((n_streams, count), dtype=np.float64)
    if count >= _C_MIN_DRAWS:
        return _c_uniform_matrix(master_seed, first_stream, n_streams, count, start)
    first_block = start // 4
    n_blocks = (start + count - 1) // 4 + 1 - first_block
    blocks = np.arange(first_block, first_block + n_blocks, dtype=np.uint64)[np.newaxis, :]
    stream_ids = (
        (np.uint64(first_stream & _MASK64) + np.arange(n_streams, dtype=np.uint64))
    )[:, np.newaxis]
    lanes = philox_blocks(blocks, master_seed & _MASK64, stream_ids)
    # Draw i is lane i % 4 of block i // 4.
    out = np.empty((n_streams, n_blocks, 4), dtype=np.float64)
    for lane, word in enumerate(lanes):
        _to_unit(word, out[:, :, lane])
    offset = start - 4 * first_block
    return out.reshape(n_streams, 4 * n_blocks)[:, offset : offset + count]


@functools.cache
def _load_philox() -> type:
    """numpy's ``Philox`` class, loaded from its extension alone (:func:`_load_from_extension`).

    ``import numpy.random`` raises the peak RSS by 5.4 MiB, the extension
    with the two it imports by 0.55 MiB. Most of the rest is ``secrets``,
    which ``bit_generator`` imports only for ``randbits`` and which brings
    ``hashlib`` and OpenSSL, so a stand-in ``secrets`` gives it
    ``randbits`` as ``Lib/secrets.py`` defines it, drawing entropy from the
    same OS source. A later ``import numpy.random`` holds this very class.
    """
    secrets = types.ModuleType("secrets")
    secrets.randbits = random.SystemRandom().getrandbits
    return _load_from_extension("numpy.random", "numpy.random._philox", "Philox", secrets=secrets)


@functools.cache
def _bit_generator() -> object:
    """The process's one numpy ``Philox``; building one costs more than a short stream's draws."""
    return _load_philox()(key=np.zeros(2, dtype=np.uint64))


def _c_uniform_matrix(
    master_seed: int, first_stream: int, n_streams: int, count: int, start: int
) -> np.ndarray:
    """:func:`uniform_matrix` drawn one stream at a time by numpy's Philox.

    numpy increments its 256-bit counter before producing each block, so
    the counter is set one below the first block (all ones for block 0) and
    its buffer is marked empty. Each call sets the shared ``Philox``'s whole
    state, so nothing carries over from another call. The raw words of
    ``_GROUP_WORDS // count`` rows (at least one) are gathered and converted
    to floats together.
    """
    first_block = start // 4
    offset = start - 4 * first_block
    out = np.empty((n_streams, count), dtype=np.float64)
    bit_gen = _bit_generator()
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
    rows = max(1, _GROUP_WORDS // count)
    group = np.empty((min(rows, n_streams), count), dtype=np.uint64)
    for first in range(0, n_streams, rows):
        words = group[: n_streams - first]
        for i in range(len(words)):
            key[1] = (first_stream + first + i) & _MASK64
            bit_gen.state = state
            words[i] = bit_gen.random_raw(offset + count)[offset:]
        _to_unit(words, out[first : first + len(words)])
    return out
