"""The counter-based engine must be real Philox and draw-index stable."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from collab_avg._philox import philox_blocks, uniform_matrix, uniforms

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def _reference_raw(key_lo: int, key_hi: int, n_words: int) -> np.ndarray:
    bit_gen = Philox(key=np.array([key_lo, key_hi], dtype=np.uint64))
    return bit_gen.random_raw(n_words)


@pytest.mark.parametrize(
    "key_lo,key_hi",
    [(0, 0), (1, 0), (0x123456789ABCDEF0, 0xFEDCBA9876543210), (2**64 - 1, 2**64 - 1)],
)
def test_matches_numpy_philox_raw_output(key_lo, key_hi):
    """Bit-exact agreement with numpy's Philox4x64-10.

    numpy increments the counter before producing each block, so its raw
    word stream corresponds to counter blocks 1, 2, 3, ...
    """
    n_blocks = 16
    blocks = np.arange(1, n_blocks + 1, dtype=np.uint64)
    lanes = philox_blocks(blocks, key_lo, key_hi)
    mine = np.stack(lanes, axis=-1).reshape(-1)
    reference = _reference_raw(key_lo, key_hi, 4 * n_blocks)
    assert np.array_equal(mine, reference)


def test_uniforms_deterministic_and_in_open_interval():
    u1 = uniforms(12345, 7, 10_000)
    u2 = uniforms(12345, 7, 10_000)
    assert np.array_equal(u1, u2)
    assert u1.min() > 0.0
    assert u1.max() < 1.0


def test_uniforms_slicing_matches_one_shot():
    """Draw indices are absolute: chunked generation changes nothing."""
    whole = uniforms(99, 3, 100)
    parts = np.concatenate([uniforms(99, 3, 37), uniforms(99, 3, 63, start=37)])
    assert np.array_equal(whole, parts)


def test_uniform_matrix_rows_are_streams():
    matrix = uniform_matrix(2024, first_stream=5, n_streams=8, count=13)
    for t in range(8):
        assert np.array_equal(matrix[t], uniforms(2024, 5 + t, 13))


def test_streams_are_distinct():
    a = uniforms(0, 0, 256)
    b = uniforms(0, 1, 256)
    c = uniforms(1, 0, 256)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_ids_wrap_modulo_2_64():
    top = uniforms(11, 2**64 - 1, 8)
    wrapped = uniform_matrix(11, first_stream=2**64 - 1, n_streams=2, count=8)
    assert np.array_equal(wrapped[0], top)
    assert np.array_equal(wrapped[1], uniforms(11, 0, 8))


def test_empty_and_invalid_requests():
    assert uniforms(1, 1, 0).size == 0
    assert uniform_matrix(1, 0, 0, 5).shape == (0, 5)
    with pytest.raises(ValueError):
        uniforms(1, 1, -1)
    with pytest.raises(ValueError):
        uniform_matrix(1, 0, -1, 5)
    with pytest.raises(ValueError):
        uniform_matrix(1, 0, 1, 5, start=-1)


@settings(deadline=None, max_examples=25)
@given(master=U64, stream=U64, start=st.integers(0, 50), count=st.integers(1, 64))
def test_slice_consistency_property(master, stream, start, count):
    long = uniforms(master, stream, start + count)
    window = uniforms(master, stream, count, start=start)
    assert np.array_equal(long[start:], window)


@settings(deadline=None, max_examples=25)
@given(
    master=U64,
    first=U64,
    n_streams=st.integers(1, 6),
    start=st.integers(0, 50),
    count=st.integers(1, 40),
)
@example(master=5, first=2**64 - 3, n_streams=6, start=7, count=9)
@example(master=0, first=2**64 - 1, n_streams=2, start=1, count=1)
def test_uniform_matrix_start_property(master, first, n_streams, start, count):
    """Row ``t`` of a window is the tail of stream ``first + t`` (mod 2**64)."""
    window = uniform_matrix(master, first, n_streams, count, start)
    assert window.shape == (n_streams, count)
    for t in range(n_streams):
        stream = (first + t) % 2**64
        assert np.array_equal(window[t], uniforms(master, stream, start + count)[start:])
