"""The counter-based engine must be real Philox and draw-index stable."""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from collab_avg import _philox, distributions
from collab_avg._philox import _C_MIN_DRAWS, _GROUP_WORDS, philox_blocks, uniform_matrix, uniforms

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


def _on_each_path(master, first, n_streams, count, start):
    """``uniform_matrix`` forced onto numpy's C Philox, then onto the vectorized rounds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_philox, "_C_MIN_DRAWS", 1)
        c_path = uniform_matrix(master, first, n_streams, count, start)
        patch.setattr(_philox, "_C_MIN_DRAWS", count + 1)
        vectorized = uniform_matrix(master, first, n_streams, count, start)
    return c_path, vectorized


@settings(deadline=None, max_examples=40)
@given(
    master=U64,
    first=U64,
    n_streams=st.integers(1, 4),
    start=st.integers(0, 600),
    count=st.integers(1, 2 * _C_MIN_DRAWS + 8),
)
@example(master=1, first=2, n_streams=2, start=0, count=_C_MIN_DRAWS - 1)
@example(master=1, first=2, n_streams=2, start=0, count=_C_MIN_DRAWS)
@example(master=3, first=4, n_streams=3, start=7, count=_C_MIN_DRAWS + 1)
@example(master=3, first=4, n_streams=1, start=4 * 97 + 2, count=_C_MIN_DRAWS + 5)
@example(master=5, first=2**64 - 2, n_streams=4, start=3, count=_C_MIN_DRAWS)
@example(master=2**64 - 1, first=2**64 - 1, n_streams=2, start=1, count=_C_MIN_DRAWS + 3)
# Stream ids wrap inside a group of the C path; rows of about a group.
@example(master=2**64 - 1, first=2**64 - 40, n_streams=_GROUP_WORDS // 100 + 2, start=3, count=100)
@example(master=8, first=2**64 - 1, n_streams=3, start=6, count=_GROUP_WORDS - 1)
@example(master=8, first=2**64 - 1, n_streams=3, start=6, count=_GROUP_WORDS)
@example(master=8, first=2**64 - 1, n_streams=3, start=6, count=_GROUP_WORDS + 3)
def test_c_and_vectorized_paths_agree(master, first, n_streams, start, count):
    """Both generation paths, and the default choice between them, give the same bits."""
    c_path, vectorized = _on_each_path(master, first, n_streams, count, start)
    assert c_path.shape == (n_streams, count)
    assert np.array_equal(c_path, vectorized)
    assert np.array_equal(uniform_matrix(master, first, n_streams, count, start), vectorized)


class TestCPathGroups:
    """The C path gathers short rows in groups of ``_GROUP_WORDS // count``: its edges keep the rounds' bits."""

    @pytest.mark.parametrize("count", [_C_MIN_DRAWS, 100, 200])
    @pytest.mark.parametrize("extra", [-1, 0, 1, None], ids=["below", "at", "above", "not_a_multiple"])
    @pytest.mark.parametrize("start", [0, 5])
    def test_streams_around_a_group(self, count, extra, start):
        rows = _GROUP_WORDS // count
        n_streams = 2 * rows + 3 if extra is None else rows + extra
        c_path, vectorized = _on_each_path(17, 40, n_streams, count, start)
        assert c_path.shape == (n_streams, count)
        assert np.array_equal(c_path, vectorized)

    def test_nothing_carries_over_between_calls(self, monkeypatch):
        calls = [(3, 2**64 - 2, 90, 70, 0), (2**64 - 1, 5, 150, 64, 9), (3, 7, 2, _GROUP_WORDS + 1, 13)]

        def c_path(args):
            return _philox._c_uniform_matrix(*args).tobytes()

        fresh = []
        for args in calls:
            monkeypatch.setattr(_philox, "_bit_generator", functools.cache(_philox._bit_generator.__wrapped__))
            fresh.append(c_path(args))
        # Back to back on one shared generator, which draws in between as
        # a numpy Generator would: its counter, buffer and cached half-word move.
        bit_gen = _philox._bit_generator()
        for args, expected in zip(calls + calls[::-1], fresh + fresh[::-1]):
            assert c_path(args) == expected
            np.random.Generator(bit_gen).integers(0, 2**32, size=3, dtype=np.uint32)
            np.random.Generator(bit_gen).random(5)
        for (master, first, n_streams, count, start), expected in zip(calls, fresh):
            assert expected == _on_each_path(master, first, n_streams, count, start)[1].tobytes()


def run_python(script: str) -> list[str]:
    """Stderr lines of ``script`` run in a new interpreter, which must exit 0."""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return result.stderr.decode().splitlines()


# Loads numpy's Philox in a fresh interpreter that has imported the CLI, as
# validate's set-up does, and writes how far that raised the peak RSS.
LOAD_PHILOX_PEAK = """
import sys
from collab_avg import _philox, cli


def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


before = peak_kib()
_philox._load_philox()
print(peak_kib() - before, file=sys.stderr)
"""

# The same with ExtensionFileLoader refusing, so no numpy file is loaded
# that way: the stand-ins must be gone for the public import, and the C
# path must still give the vectorized rounds' bits.
LOAD_PHILOX_REFUSED = """
import sys
from collab_avg import _philox, distributions

refused = []


def refuse(*args):
    refused.append(args[0])
    raise OSError("refused")


distributions.ExtensionFileLoader = refuse
philox = _philox._load_philox()
public = hasattr(sys.modules.get("numpy.random"), "default_rng")
secrets = hasattr(sys.modules.get("secrets"), "token_hex")
import numpy.random
c_path = _philox._c_uniform_matrix(9, 2**64 - 1, 3, 300, 6)
_philox._C_MIN_DRAWS = 2**62
same = c_path.tobytes() == _philox.uniform_matrix(9, 2**64 - 1, 3, 300, 6).tobytes()
print(
    f"refused: {refused}, public import: {public}, real secrets: {secrets}, "
    f"same class: {philox is numpy.random.Philox}, same bits: {same}",
    file=sys.stderr,
)
"""


class TestLoadPhilox:
    """numpy's Philox comes from its ``_philox`` extension alone, or else the public import."""

    @pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="needs /proc")
    def test_extension_adds_little_memory(self):
        # Measured +0.55 MiB, against +5.4 MiB for import numpy.random.
        assert int(run_python(LOAD_PHILOX_PEAK)[-1]) < 1536

    def test_public_import_when_numpy_random_is_loaded(self, monkeypatch):
        # This process imported numpy.random above.
        calls = []
        monkeypatch.setattr(distributions, "ExtensionFileLoader", lambda *args: calls.append(args))
        assert _philox._load_philox.__wrapped__() is Philox
        assert calls == []

    def test_public_import_when_the_extension_load_raises(self):
        assert run_python(LOAD_PHILOX_REFUSED) == [
            "refused: ['numpy.random._philox'], public import: True, real secrets: True, "
            "same class: True, same bits: True"
        ]
