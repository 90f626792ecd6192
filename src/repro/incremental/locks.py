"""A writer-preferring reader/writer lock for delta application.

``Database.load_rows`` mutates shared state that queries read lock-free —
the TAG graph's adjacency dicts, relation row lists, statistics.  Reads
vastly outnumber writes in the serving workload, so a mutex would
serialize the hot path; instead reads share the lock and a write (one
delta application, including dependent view refreshes) gets exclusivity.

Semantics, chosen for how :class:`repro.api.Database` uses the lock:

* **Reads are reentrant.**  A session executing a query may re-enter the
  read gate (e.g. a subquery executing through the same session helper);
  the depth is tracked per-thread.
* **The writer's own reads are no-ops.**  Refreshing a materialized view
  inside ``load_rows`` executes query fragments; those run on the
  writer's thread and must not self-deadlock.
* **Writers are preferred** — new first-time readers queue behind a
  waiting writer so a steady read stream cannot starve writes — *except*
  reentrant readers, which already hold the lock and must proceed for
  the outer read to ever finish.
* **No upgrades.**  Acquiring write while holding only a read raises:
  two upgraders would deadlock each other, so the pattern is banned.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

__all__ = ["LockTimeout", "ReadWriteLock"]


class LockTimeout(TimeoutError):
    """``acquire_write(timeout=)`` gave up before getting exclusivity.

    Carries how long the caller waited; the serving layer maps this to a
    retryable error frame instead of wedging a worker indefinitely behind
    a reader storm.
    """

    def __init__(self, waited_seconds: float) -> None:
        super().__init__(
            f"write lock not acquired within {waited_seconds:.3f}s "
            "(readers or another writer still active)"
        )
        self.waited_seconds = waited_seconds


class ReadWriteLock:
    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._active_readers = 0
        self._writer_thread: int | None = None
        self._write_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _read_depth(self) -> int:
        return getattr(self._local, "read_depth", 0)

    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        me = threading.get_ident()
        depth = self._read_depth()
        if depth > 0:
            # reentrant read: the outer hold keeps writers out; bypassing
            # the writer-preference gate here is what makes reentrancy
            # deadlock-free (a waiting writer must not block the inner
            # read the outer read needs to complete).
            self._local.read_depth = depth + 1
            return
        with self._cond:
            if self._writer_thread == me:
                # the writer reading its own exclusive state
                self._local.read_depth = 1
                return
            while self._writer_thread is not None or self._writers_waiting > 0:
                self._cond.wait()
            self._active_readers += 1
        self._local.read_depth = 1

    def release_read(self) -> None:
        depth = self._read_depth()
        if depth <= 0:
            raise RuntimeError("release_read without a matching acquire_read")
        self._local.read_depth = depth - 1
        if depth > 1:
            return
        me = threading.get_ident()
        with self._cond:
            if self._writer_thread == me:
                return  # writer-thread read: never counted as a reader
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    def acquire_write(self, timeout: Optional[float] = None) -> None:
        """Acquire exclusivity, optionally bounded by ``timeout`` seconds.

        With a timeout, raises :class:`LockTimeout` if exclusivity was not
        obtained in time — the lock is left exactly as found (the waiting
        registration is withdrawn and queued readers are re-notified), so
        a timed-out writer can safely retry or give up.
        """
        me = threading.get_ident()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._writer_thread == me:
                self._write_depth += 1
                return
            if self._read_depth() > 0:
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock; "
                    "release the read first"
                )
            self._writers_waiting += 1
            try:
                while self._writer_thread is not None or self._active_readers > 0:
                    if deadline is None:
                        self._cond.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # withdrawing may unblock readers queued behind
                        # this (possibly sole) waiting writer; they wake
                        # after the finally-decrement and lock release,
                        # so they observe the withdrawn registration
                        self._cond.notify_all()
                        raise LockTimeout(timeout or 0.0)
                    self._cond.wait(remaining)
                self._writer_thread = me
                self._write_depth = 1
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer_thread != me:
                raise RuntimeError("release_write by a thread not holding the write lock")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer_thread = None
                self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self, timeout: Optional[float] = None):
        self.acquire_write(timeout=timeout)
        try:
            yield
        finally:
            self.release_write()
