"""A pool of forked worker processes fed through pipes, for the CLI.

Each worker has its own task pipe and result pipe and holds one task at a
time, so the parent always knows which task a lost worker took with it.
It starts no thread and imports no ``multiprocessing``; the CLI loads this
module only when a run starts a pool.

Workers are forked, not spawned: spawned workers import numpy again, about
30% more CPU time on the surrogate workloads, while forked ones share the
parent's import, and as the parent's own children their CPU time and memory
count in its ``wait4``.  The CLI starts no thread, so forking is safe.  The
pool imports ``numpy.random``, which every surrogate's shuffle needs, before
it forks, so the workers share that import too instead of each paying for
its own at its first shuffle.

Tasks and results each cross their pipe as one pickle, a task's at protocol
5, which writes and reads a unit's symbols without copying them.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import Callable


class _RemoteTraceback(Exception):
    """The cause chained to an exception re-raised from a pool worker: the
    traceback it had there."""


@dataclass(eq=False)
class _Task:
    """One submitted call: its ``(fn, args)`` until a worker takes it, then
    its outcome, ``(result, None)`` or ``(None, exception)``."""

    call: tuple | None
    outcome: tuple | None = None


@dataclass(eq=False)
class _Worker:
    pid: int
    tasks: io.BufferedWriter
    results: io.BufferedReader
    task: _Task | None = None


def _serve(tasks: io.BufferedReader, results: io.BufferedWriter) -> None:
    """A worker's loop: run each ``(fn, args)`` read from ``tasks`` and write
    ``(result, None)``, or ``(exception, its traceback)``, to ``results``,
    until ``tasks`` ends, at a task's boundary or partway through one."""
    while True:
        try:
            fn, args = pickle.load(tasks)
        except (EOFError, pickle.UnpicklingError):
            return
        try:
            reply = pickle.dumps((fn(*args), None))
        except Exception as exc:
            reply = pickle.dumps((exc, traceback.format_exc()))
        results.write(reply)
        results.flush()


def _close_pipes(workers: list[_Worker]) -> None:
    """Close the parent's ends of these workers' pipes, read ends first: a
    worker still writing a result then fails at once instead of blocking
    on a full pipe, and one waiting for a task reads end of file."""
    for worker in workers:
        worker.results.close()
    for worker in workers:
        # A task a lost worker never read may still sit in the buffer.
        with suppress(OSError):
            worker.tasks.close()


class ForkPool:
    """Forked worker processes, each handed one task at a time through its
    own task pipe and result pipe.

    Queued tasks go to idle workers, and results are collected, whenever a
    task is submitted or a result is asked for; only the getter waits.  A
    task is pickled when a worker takes it, so the queue holds no copies.
    A worker that exits or is killed while it holds a task, or while the
    task is being written to it, fails that task with a
    ``ChildProcessError`` naming its exit code or signal, and is replaced.
    As a context manager, the pool closes on leaving the block, on an
    exception too.
    """

    def __init__(self, workers: int) -> None:
        import numpy.random  # for the workers to inherit

        self._workers: dict[int, _Worker] = {}  # by the result pipe's fd
        self._queue: deque[_Task] = deque()
        for _ in range(workers):
            self._fork()

    def __enter__(self) -> ForkPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _fork(self) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                # Other workers' pipes stay open only in the parent, so each
                # worker reads end of file as soon as the parent closes its
                # task pipe, not once every later worker has exited too.
                for worker in self._workers.values():
                    os.close(worker.tasks.fileno())
                    os.close(worker.results.fileno())
                os.close(task_w)
                os.close(result_r)
                _serve(open(task_r, "rb"), open(result_w, "wb"))
                status = 0
            finally:
                # Never unwind into the parent's code or flush its buffers.
                os._exit(status)
        os.close(task_r)
        os.close(result_w)
        self._workers[result_r] = _Worker(pid, open(task_w, "wb"), open(result_r, "rb"))

    def submit(self, fn: Callable, *args: object) -> Callable:
        """Queue ``fn(*args)``; returns its getter, which returns the result
        or raises the exception, chained to its traceback in the worker."""
        task = _Task((fn, args))
        self._queue.append(task)
        self._pump(block=False)
        return partial(self._result, task)

    def _result(self, task: _Task) -> object:
        while task.outcome is None:
            self._pump(block=True)
        result, error = task.outcome
        if error is not None:
            raise error
        return result

    def _pump(self, block: bool) -> None:
        """Hand queued tasks to idle workers, then take every reply or loss
        that is ready, waiting for one if ``block`` and a worker is busy."""
        while self._queue:
            idle = next((w for w in self._workers.values() if w.task is None), None)
            if idle is None:
                break
            self._send(idle, self._queue.popleft())
        busy = any(w.task is not None for w in self._workers.values())
        timeout = None if block and busy else 0
        # Idle workers are watched too: end of file on a result pipe is how
        # the death of any worker shows.
        ready, _, _ = select.select(list(self._workers), [], [], timeout)
        for fd in ready:
            worker = self._workers[fd]
            try:
                value, trace = pickle.load(worker.results)
            except (EOFError, pickle.UnpicklingError):
                self._lose(worker)
                continue
            if trace is None:
                worker.task.outcome = (value, None)
            else:
                value.__cause__ = _RemoteTraceback("\n" + trace)
                worker.task.outcome = (None, value)
            worker.task = None

    def _send(self, worker: _Worker, task: _Task) -> None:
        # Protocol 5, not the default 4, which would pickle a unit's symbols
        # through a copy.  A call that fails to pickle raises here and
        # leaves the worker idle.
        try:
            pickle.dump(task.call, worker.tasks, protocol=5)
            worker.tasks.flush()
        except BrokenPipeError:
            worker.task = task
            self._lose(worker)
        else:
            worker.task = task
        task.call = None

    def _lose(self, worker: _Worker) -> None:
        """Reap a worker that has exited or been killed, fail the task it
        held, and fork its replacement."""
        del self._workers[worker.results.fileno()]
        _close_pipes([worker])
        _, status = os.waitpid(worker.pid, 0)
        if worker.task is not None:
            code = os.waitstatus_to_exitcode(status)
            how = f"exit code {code}" if code >= 0 else f"killed by signal {-code}"
            lost = ChildProcessError(f"analysis worker terminated ({how})")
            worker.task.outcome = (None, lost)
        self._fork()

    def close(self) -> None:
        """Close every worker's pipes and wait for it to exit.  A worker
        still running a task finishes it first."""
        workers = list(self._workers.values())
        self._workers.clear()
        _close_pipes(workers)
        for worker in workers:
            os.waitpid(worker.pid, 0)
