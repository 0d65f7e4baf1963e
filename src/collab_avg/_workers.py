"""Forked workers: how the package spreads work over the CPUs it may use.

Work fans out one way: ``ordered_map`` streams items made by forked workers
back through pipes, in order, as bytes (contour rows and the curve
statistics' tables of subtree sums), and its rules for a failed worker and
for reaping are the package's only ones. The calling process only reads
the pipes, so it holds none of a worker's buffers on top of everything it
loaded to set up. Platforms without ``os.sched_getaffinity``
(macOS, Windows) stay serial, and under ``taskset -c 0`` all work stays in
the calling process.
"""

from __future__ import annotations

import os
import signal
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import BinaryIO


def cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def _fork(work: Callable[[], None]) -> Iterator[int]:
    """Fork a child that runs ``work`` and exits, 0 if it returned, else 1; yield its pid.

    SIGINT is held from before the fork to the end of the ``with`` block,
    so a Ctrl-C during the at-fork hooks is not raised in a hook and lost.
    The parent gets it once the block has recorded the pid; the child only
    inside the ``try`` that ends in ``os._exit``.
    """
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT,))
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                work()
                code = 0
            finally:
                os._exit(code)
        yield pid
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def ordered_map(make: Callable[[int], bytes], n: int, workers: int) -> Iterator[bytes]:
    """Yield ``make(i)`` for ``i = 0 .. n-1`` in order, made by ``workers`` processes.

    One worker is this process. From two on, item ``i`` belongs to worker
    ``i % workers``, a forked child that makes its items in turn and writes
    each to its own pipe as an 8-byte length and the data, so it runs at
    most a pipe's capacity ahead of the reader; this process only reads the
    pipes in order. A worker that cannot be forked, or whose pipe ends
    before all its items arrived, has its remaining items made here, so a
    real error is raised in this process with its own message. However the
    generator ends (exhausted, closed, an error or an interrupt), every
    child is killed and reaped; close it explicitly rather than leave that
    to garbage collection.
    """
    pipes: list[BinaryIO | None] = [None] * workers
    children = []
    try:
        for worker in range(workers if workers > 1 else 0):
            read_end, write_end = os.pipe()

            def send() -> None:
                os.close(read_end)
                # Only the parent may hold a read end, so a writer whose
                # parent died gets EPIPE instead of blocking forever.
                for pipe in pipes:
                    if pipe is not None:
                        pipe.close()
                with open(write_end, "wb") as out:
                    for i in range(worker, n, workers):
                        data = make(i)
                        out.write(len(data).to_bytes(8, "little"))
                        out.write(data)
                        out.flush()

            try:
                with _fork(send) as pid:
                    children.append(pid)
            except OSError:
                os.close(read_end)
                os.close(write_end)
                continue
            os.close(write_end)
            pipes[worker] = open(read_end, "rb")
        for i in range(n):
            pipe = pipes[i % workers]
            if pipe is not None:
                head = pipe.read(8)
                if len(head) == 8:
                    size = int.from_bytes(head, "little")
                    data = pipe.read(size)
                    if len(data) == size:
                        yield data
                        continue
                pipe.close()  # the worker died: its items are made here from now on
                pipes[i % workers] = None
            yield make(i)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
        for pipe in pipes:
            if pipe is not None:
                pipe.close()
