"""``_workers.ordered_map``: the package's one way to fork workers."""

from __future__ import annotations

import ast
import os
import signal
import time
from pathlib import Path

import pytest

import collab_avg
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
    # Worker 1 sends an empty item, then 2 MiB, more than a default 64 KiB pipe holds.
    sizes = [5, 0, 3, 2**21]
    items = [bytes([i + 1]) * size for i, size in enumerate(sizes)]
    forks = force_cpus(monkeypatch, 2)
    assert list(ordered_map(items.__getitem__, len(items), 2)) == items
    assert len(forks) == round_forks(2)
    assert no_child_left()


@pytest.mark.parametrize("death", ["killed", "raises"])
def test_dead_worker_has_its_remaining_items_made_here(monkeypatch, death):
    parent = os.getpid()
    made_here = []

    def make(i: int) -> bytes:
        if os.getpid() == parent:
            made_here.append(i)
        elif i >= 3:  # each worker sends its first item, then dies
            if death == "raises":
                raise RuntimeError("worker failure")
            os.kill(os.getpid(), signal.SIGKILL)
        return _item(i)

    forks = force_cpus(monkeypatch, 3)
    assert list(ordered_map(make, 9, 3)) == [_item(i) for i in range(9)]
    assert made_here == [3, 4, 5, 6, 7, 8]
    assert len(forks) == round_forks(3)
    assert no_child_left()


@pytest.mark.parametrize("refused", ["every", "second"])
def test_an_item_that_cannot_be_forked_is_made_here(monkeypatch, refused):
    # Only the workers that could not be forked have their items made here.
    parent = os.getpid()
    made_here = []

    def make(i: int) -> bytes:
        if os.getpid() == parent:
            made_here.append(i)
        return _item(i)

    forks = force_cpus(monkeypatch, 3)
    fork = os.fork
    tries = []

    def no_fork():
        tries.append(1)
        if refused == "every" or len(tries) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", no_fork)
    assert list(ordered_map(make, 9, 3)) == [_item(i) for i in range(9)]
    assert made_here == (list(range(9)) if refused == "every" else [1, 4, 7])
    assert len(tries) == 3
    assert len(forks) == (0 if refused == "every" else 2)
    assert no_child_left()


@pytest.mark.parametrize("death", ["exits", "raises"])
def test_an_error_made_here_leaves_no_worker(monkeypatch, death):
    # Worker 0 dies, so its item is redone here, where it fails while the
    # other workers are still running.
    parent = os.getpid()

    def make(i: int) -> bytes:
        if os.getpid() == parent:
            raise RuntimeError("parent failure")
        if i == 0:
            if death == "raises":
                raise RuntimeError("worker failure")
            os._exit(1)
        time.sleep(60)
        return _item(i)

    forks = force_cpus(monkeypatch, 3)
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="parent failure"):
        list(ordered_map(make, 3, 3))
    assert time.monotonic() - began < 30
    assert len(forks) == round_forks(3)
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
