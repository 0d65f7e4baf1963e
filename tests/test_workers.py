"""``_workers.ordered_map``: the package's one way to fork workers."""

from __future__ import annotations

import ast
import mmap
import os
import signal
import time
from contextlib import closing
from pathlib import Path

import pytest

import collab_avg
from collab_avg import _workers
from collab_avg._workers import ordered_map

from conftest import force_cpus, no_child_left, round_forks


def _item(i: int) -> bytes:
    """A different length and content per item."""
    return f"item {i};".encode() * (i + 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_items_come_back_in_order(monkeypatch, workers):
    # One worker is this process; from two on, it makes none of the items.
    parent = os.getpid()
    made_here = []

    def make(i: int) -> bytes:
        if os.getpid() == parent:
            made_here.append(i)
        return _item(i)

    forks = force_cpus(monkeypatch, workers)
    assert list(ordered_map(make, 10, workers)) == [_item(i) for i in range(10)]
    assert made_here == (list(range(10)) if workers == 1 else [])
    assert len(forks) == round_forks(workers)
    assert no_child_left()


def test_empty_and_larger_than_a_pipe_items_round_trip(monkeypatch):
    # Worker 1 sends an empty item, then 2 MiB, more than a pipe holds.
    sizes = [5, 0, 3, 2**21]
    items = [bytes([i + 1]) * size for i, size in enumerate(sizes)]
    forks = force_cpus(monkeypatch, 2)
    assert list(ordered_map(items.__getitem__, len(items), 2)) == items
    assert len(forks) == round_forks(2)
    assert no_child_left()


def test_dead_worker_has_its_remaining_items_made_here(monkeypatch):
    parent = os.getpid()
    made_here = []

    def make(i: int) -> bytes:
        if os.getpid() == parent:
            made_here.append(i)
        elif i >= 3:  # each worker sends its first item, then dies
            os.kill(os.getpid(), signal.SIGKILL)
        return _item(i)

    forks = force_cpus(monkeypatch, 3)
    assert list(ordered_map(make, 9, 3)) == [_item(i) for i in range(9)]
    assert made_here == [3, 4, 5, 6, 7, 8]
    assert len(forks) == round_forks(3)
    assert no_child_left()


@pytest.mark.skipif(_workers.F_SETPIPE_SZ is None, reason="pipes keep their default size")
def test_a_worker_runs_a_mebibyte_ahead(monkeypatch):
    # Worker 1 makes item 7 only once items 1, 3 and 5 (768 KiB) are in its
    # pipe, while the reader still waits for item 0; a 64 KiB pipe holds
    # none of them, and item 0 would then give up after 10 seconds.
    worker_1_done = mmap.mmap(-1, 1)

    def make(i: int) -> bytes:
        if i == 0:
            deadline = time.monotonic() + 10
            while not worker_1_done[0] and time.monotonic() < deadline:
                time.sleep(0.01)
            return worker_1_done[:]
        if i == 7:
            worker_1_done[0] = 1
        return bytes(2**18)

    force_cpus(monkeypatch, 2)
    began = time.monotonic()
    with closing(ordered_map(make, 8, 2)) as items:
        assert next(items) == b"\x01"
    assert time.monotonic() - began < 5
    assert no_child_left()


@pytest.mark.parametrize("limit", ["no_constant", "refused"])
def test_a_pipe_that_cannot_grow_keeps_its_size(monkeypatch, limit):
    if limit == "no_constant":
        monkeypatch.setattr(_workers, "F_SETPIPE_SZ", None)
    else:

        def refused(fd, cmd, arg):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(_workers, "F_SETPIPE_SZ", 1031)  # Linux's value
        monkeypatch.setattr(_workers, "fcntl", refused)
    forks = force_cpus(monkeypatch, 2)
    assert list(ordered_map(_item, 10, 2)) == [_item(i) for i in range(10)]
    assert len(forks) == round_forks(2)
    assert no_child_left()


def test_closing_early_leaves_no_worker(monkeypatch):
    forks = force_cpus(monkeypatch, 3)
    items = ordered_map(_item, 30, 3)
    assert next(items) == _item(0)
    items.close()
    assert len(forks) == round_forks(3)
    assert no_child_left()


def test_only_the_workers_module_forks():
    package = Path(collab_avg.__file__).parent
    forking = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                forking.add(path.name)
            if isinstance(node, ast.ImportFrom) and any(alias.name == "fork" for alias in node.names):
                forking.add(path.name)
    assert forking == {"_workers.py"}
