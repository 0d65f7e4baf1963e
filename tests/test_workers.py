"""``_workers.ordered_map``: the package's one way to fork workers."""

from __future__ import annotations

import ast
import os
import signal
from pathlib import Path

import pytest

import collab_avg
from collab_avg._workers import ordered_map

from conftest import force_cpus, no_child_left


def _item(i: int) -> bytes:
    """A different length and content per item."""
    return f"item {i};".encode() * (i + 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_items_come_back_in_order(monkeypatch, workers):
    forks = force_cpus(monkeypatch, workers)
    assert list(ordered_map(_item, 10, workers)) == [_item(i) for i in range(10)]
    assert len(forks) == workers - 1
    assert no_child_left()


def test_empty_and_larger_than_a_pipe_items_round_trip(monkeypatch):
    # Worker 1 sends an empty item, then 1 MiB, more than a pipe holds.
    sizes = [5, 0, 3, 2**20]
    items = [bytes([i + 1]) * size for i, size in enumerate(sizes)]
    forks = force_cpus(monkeypatch, 2)
    assert list(ordered_map(items.__getitem__, len(items), 2)) == items
    assert len(forks) == 1
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
    assert made_here == [0, 3, 4, 5, 6, 7, 8]
    assert len(forks) == 2
    assert no_child_left()


def test_closing_early_leaves_no_worker(monkeypatch):
    forks = force_cpus(monkeypatch, 3)
    items = ordered_map(_item, 30, 3)
    assert next(items) == _item(0)
    items.close()
    assert len(forks) == 2
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
