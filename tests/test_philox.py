"""The counter-based engine must be real Philox and draw-index stable."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from collab_avg import _philox, distributions
from collab_avg._philox import _C_MIN_DRAWS, philox_blocks, uniform_matrix, uniforms

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


def test_uniforms_deterministic_and_in_unit_interval():
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
def test_c_and_vectorized_paths_agree(master, first, n_streams, start, count):
    """Both generation paths, and the default choice between them, give the same bits."""
    c_path, vectorized = _on_each_path(master, first, n_streams, count, start)
    assert c_path.shape == (n_streams, count)
    assert np.array_equal(c_path, vectorized)
    assert np.array_equal(uniform_matrix(master, first, n_streams, count, start), vectorized)


class TestCPathRows:
    """The C path draws row by row on one shared generator: any row count, length and start keeps the rounds' bits."""

    @pytest.mark.parametrize("n_streams", [1, 2, 3, 100])
    @pytest.mark.parametrize("count", [64, 65, 200, 8_193])
    @pytest.mark.parametrize("start", [0, 5, 6])
    def test_rows_match_the_rounds(self, n_streams, count, start):
        # Stream ids 2**64 - 2, 2**64 - 1, 0, 1, ...: three rows or more wrap.
        c_path, vectorized = _on_each_path(17, 2**64 - 2, n_streams, count, start)
        assert c_path.shape == (n_streams, count)
        assert np.array_equal(c_path, vectorized)

    def test_nothing_carries_over_between_calls(self, monkeypatch):
        calls = [(3, 2**64 - 2, 90, 70, 0), (2**64 - 1, 5, 150, 64, 9), (3, 7, 2, 8_193, 13)]
        fresh = []
        for args in calls:
            monkeypatch.setattr(_philox, "_load_generator", functools.cache(_philox._load_generator.__wrapped__))
            fresh.append(uniform_matrix(*args).tobytes())
        # Back to back on one shared generator, which draws in between as
        # numpy Generators would: its counter, buffer and cached half-word move.
        generator = _philox._load_generator()
        for args, expected in zip(calls + calls[::-1], fresh + fresh[::-1]):
            assert uniform_matrix(*args).tobytes() == expected
            np.random.Generator(generator.bit_generator).integers(0, 2**32, size=3, dtype=np.uint32)
            generator.random(5)
        for (master, first, n_streams, count, start), expected in zip(calls, fresh):
            assert expected == _on_each_path(master, first, n_streams, count, start)[1].tobytes()

    def test_traces_little_beyond_its_output(self):
        uniform_matrix(1, 2, 1, 200)  # loads the generator
        tracemalloc.start()
        try:
            u = uniform_matrix(3, 2**64 - 100, 327, 200, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - u.nbytes < 4 * 1024


class TestUnitRule:
    """Both paths give numpy's ``random()`` value ``k * 2**-53`` (``k = w >> 11``) plus ``2**-54``, in (0, 1]."""

    @pytest.mark.parametrize("k", [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1])
    def test_half_step_rounds_like_k_plus_a_half(self, k):
        # (2k + 1) * 2**-54, rounded to nearest with ties to even.
        exact = float(Fraction(2 * k + 1, 2**54))
        assert np.float64(k) * 2.0**-53 + 2.0**-54 == (np.float64(k) + 0.5) * 2.0**-53 == exact

    def test_random_words_round_like_k_plus_a_half(self):
        k = np.random.default_rng(39).integers(0, 2**64, size=200_000, dtype=np.uint64) >> 11
        assert np.array_equal(k * 2.0**-53 + 2.0**-54, (k + 0.5) * 2.0**-53)

    @pytest.mark.parametrize("word,expected", [(2**64 - 1, 1.0), (2**64 - 2**11, 1.0), (2**11 - 1, 2.0**-54)])
    def test_crafted_words_on_the_rounds(self, monkeypatch, word, expected):
        def constant_blocks(block_index, key_lo, key_hi):
            shape = np.broadcast_shapes(block_index.shape, key_hi.shape)
            return tuple(np.full(shape, word, dtype=np.uint64) for _ in range(4))

        monkeypatch.setattr(_philox, "philox_blocks", constant_blocks)
        u = uniform_matrix(1, 2, 3, _C_MIN_DRAWS - 1, 5)
        assert u.shape == (3, _C_MIN_DRAWS - 1)
        assert np.all(u == expected)

    @pytest.mark.parametrize("value,expected", [(1.0 - 2.0**-53, 1.0), (0.0, 2.0**-54)])
    def test_crafted_values_on_the_c_path(self, monkeypatch, value, expected):
        # A stand-in generator whose random() writes one value.
        stub = types.SimpleNamespace(bit_generator=types.SimpleNamespace(), random=lambda out: out.fill(value))
        monkeypatch.setattr(_philox, "_load_generator", lambda: stub)
        u = uniform_matrix(1, 2, 3, _C_MIN_DRAWS, 5)
        assert u.shape == (3, _C_MIN_DRAWS)
        assert np.all(u == expected)


def run_python(script: str) -> list[str]:
    """Stderr lines of ``script`` run in a new interpreter, which must exit 0."""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return result.stderr.decode().splitlines()


# Loads numpy's Philox and Generator in a fresh interpreter that has imported
# the CLI, as validate's set-up does, and writes how far that raised the peak RSS.
LOAD_GENERATOR_PEAK = """
import sys
from collab_avg import _philox, cli


def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


before = peak_kib()
_philox._load_generator()
print(peak_kib() - before, file=sys.stderr)
"""

# The same with ExtensionFileLoader refusing, so no numpy file is loaded
# that way: the stand-ins must be gone for the public import, the C path
# must still give the vectorized rounds' bits, and a later import of
# numpy.random must hold the very classes loaded.
LOAD_GENERATOR_REFUSED = """
import sys
from collab_avg import _philox, distributions

refused = []


def refuse(*args):
    refused.append(args[0])
    raise OSError("refused")


distributions.ExtensionFileLoader = refuse
generator = _philox._load_generator()
public = hasattr(sys.modules.get("numpy.random"), "default_rng")
secrets = hasattr(sys.modules.get("secrets"), "token_hex")
import numpy.random
c_path = _philox.uniform_matrix(9, 2**64 - 1, 3, 300, 6)
_philox._C_MIN_DRAWS = 2**62
same = c_path.tobytes() == _philox.uniform_matrix(9, 2**64 - 1, 3, 300, 6).tobytes()
classes = type(generator) is numpy.random.Generator and type(generator.bit_generator) is numpy.random.Philox
print(
    f"refused: {refused}, public import: {public}, real secrets: {secrets}, "
    f"same classes: {classes}, same bits: {same}",
    file=sys.stderr,
)
"""


class TestLoadGenerator:
    """numpy's Philox and Generator come from their extensions alone, or else the public import."""

    @pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="needs /proc")
    def test_extensions_add_little_memory(self):
        # Measured +1.3 MiB, against +5.4 MiB for import numpy.random.
        assert int(run_python(LOAD_GENERATOR_PEAK)[-1]) < 1536

    def test_public_import_when_numpy_random_is_loaded(self, monkeypatch):
        # This process imported numpy.random above.
        calls = []
        monkeypatch.setattr(distributions, "ExtensionFileLoader", lambda *args: calls.append(args))
        generator = _philox._load_generator.__wrapped__()
        assert type(generator) is np.random.Generator
        assert type(generator.bit_generator) is Philox
        assert calls == []

    def test_public_import_when_the_extension_load_raises(self):
        assert run_python(LOAD_GENERATOR_REFUSED) == [
            # Philox's fallback imports numpy.random, so Generator's load is not tried.
            "refused: ['numpy.random._philox'], public import: True, "
            "real secrets: True, same classes: True, same bits: True"
        ]
