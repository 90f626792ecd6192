"""Named failpoints and the fault injector that arms them.

Chaos testing needs the failure to happen at a *named place* inside the
write path — after the WAL record hit the OS but before the fsync, after
a checkpoint's segments are in place but before its manifest names them,
halfway through a delta application — because those are exactly the windows where
a naive implementation loses acknowledged writes or double-applies them.
Sprinkling ``maybe_fire("wal.append.after_write")`` calls through the
durability, incremental, BSP and serving layers gives the chaos harness a
complete catalog of crash points (:data:`FAILPOINTS`); a
:class:`FaultInjector` arms any subset of them with one of three modes:

* ``raise`` — raise :class:`FaultInjected` at the failpoint (exercises
  error paths without killing the process);
* ``delay`` — sleep at the failpoint (exercises deadlines, cancellation
  and lock timeouts);
* ``crash`` — ``os._exit(137)``: the process dies *instantly*, with no
  ``finally`` blocks, no ``atexit`` hooks and no buffered-file flushing —
  indistinguishable from ``kill -9`` as far as the on-disk state is
  concerned, which is the whole point.

Activation is programmatic (:func:`install`) or environmental
(``REPRO_FAILPOINTS="wal.append.after_write=crash@3;bsp.superstep=delay:0.05"``),
so a chaos test can arm a failpoint in a subprocess it is about to watch
die.  When nothing is armed, :func:`maybe_fire` is a single attribute
check — the production overhead of carrying the failpoints is nil.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Exit status used by crash-mode failpoints: the conventional 128+SIGKILL,
#: so a watching parent can tell an injected crash from an ordinary error.
CRASH_EXIT_STATUS = 137

#: the environment variable carrying a failpoint spec string
FAILPOINTS_ENV = "REPRO_FAILPOINTS"

#: Every registered failpoint.  ``maybe_fire`` refuses unknown names so this
#: catalog is complete by construction — the chaos matrix iterates it.
FAILPOINTS = (
    # write-ahead log: around the write() and the fsync of one record
    "wal.append.before_write",
    "wal.append.after_write",
    "wal.append.after_fsync",
    # checkpointing: before anything is written, after the dirty segments
    # are renamed into place (but no manifest names them yet), after the
    # manifest's temp file is complete (but not yet visible), and after
    # the manifest's atomic rename (the commit point)
    "snapshot.before_write",
    "snapshot.after_segments",
    "snapshot.after_tmp_write",
    "snapshot.after_rename",
    # WAL compaction (prefix drop after a successful snapshot)
    "wal.compact.before_swap",
    # delta application inside the one write pipeline (every insert,
    # delete and update)
    "delta.apply.before_graph_patch",
    "delta.apply.after_apply",
    # recovery itself (crash-during-recovery must also recover)
    "recovery.before_replay",
    # BSP superstep boundary (every query; also the cancellation check site)
    "bsp.superstep",
    # serve worker dispatch (between dequeue and execution)
    "serve.dispatch",
)

_MODES = ("raise", "delay", "crash")


class FaultInjected(RuntimeError):
    """Raised by a ``raise``-mode failpoint."""

    def __init__(self, name: str) -> None:
        super().__init__(f"fault injected at failpoint {name!r}")
        self.failpoint = name


class FailpointError(ValueError):
    """A failpoint spec names an unknown failpoint or a malformed rule."""


class _Rule:
    """One armed failpoint: fire ``mode`` on the ``trigger``-th hit."""

    __slots__ = ("name", "mode", "trigger", "times", "delay_seconds", "hits", "fired")

    def __init__(
        self,
        name: str,
        mode: str,
        trigger: int = 1,
        times: int = 1,
        delay_seconds: float = 0.05,
    ) -> None:
        if name not in FAILPOINTS:
            raise FailpointError(
                f"unknown failpoint {name!r}; registered: {', '.join(FAILPOINTS)}"
            )
        if mode not in _MODES:
            raise FailpointError(f"unknown failpoint mode {mode!r} (raise/delay/crash)")
        if trigger < 1:
            raise FailpointError(f"trigger hit must be >= 1, got {trigger}")
        self.name = name
        self.mode = mode
        self.trigger = trigger  # fire starting at this hit count (1-based)
        self.times = times  # fire at most this many times (<=0 = forever)
        self.delay_seconds = delay_seconds
        self.hits = 0
        self.fired = 0


class FaultInjector:
    """Holds the armed rules and evaluates hits (thread-safe)."""

    def __init__(self) -> None:
        self._rules: Dict[str, _Rule] = {}
        self._lock = threading.Lock()
        #: fast-path flag read without the lock; see :func:`maybe_fire`
        self.active = False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(
        self,
        name: str,
        mode: str,
        trigger: int = 1,
        times: int = 1,
        delay_seconds: float = 0.05,
    ) -> None:
        rule = _Rule(name, mode, trigger, times, delay_seconds)
        with self._lock:
            self._rules[name] = rule
            self.active = True

    def disarm(self, name: Optional[str] = None) -> None:
        with self._lock:
            if name is None:
                self._rules.clear()
            else:
                self._rules.pop(name, None)
            self.active = bool(self._rules)

    def configure(self, spec: str) -> None:
        """Arm failpoints from a spec string.

        Grammar (``;``-separated rules)::

            name=mode[@trigger][xN][:delay_seconds]

        Examples: ``wal.append.after_write=crash@3`` (crash on the third
        hit), ``bsp.superstep=delay:0.02x0`` (sleep 20ms at every
        superstep), ``delta.apply.after_apply=raise`` (raise on first hit).
        """
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise FailpointError(f"malformed failpoint rule {chunk!r} (need name=mode)")
            name, _, rest = chunk.partition("=")
            delay = 0.05
            if ":" in rest:
                rest, _, delay_text = rest.partition(":")
                try:
                    delay = float(delay_text.split("x")[0])
                except ValueError as exc:
                    raise FailpointError(f"malformed delay in {chunk!r}") from exc
            times = 1
            if "x" in rest:
                rest, _, times_text = rest.partition("x")
                try:
                    times = int(times_text)
                except ValueError as exc:
                    raise FailpointError(f"malformed times in {chunk!r}") from exc
            trigger = 1
            if "@" in rest:
                rest, _, trigger_text = rest.partition("@")
                try:
                    trigger = int(trigger_text)
                except ValueError as exc:
                    raise FailpointError(f"malformed trigger in {chunk!r}") from exc
            self.arm(name.strip(), rest.strip(), trigger=trigger, times=times,
                     delay_seconds=delay)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def hit(self, name: str) -> None:
        if name not in FAILPOINTS:
            raise FailpointError(f"maybe_fire() on unregistered failpoint {name!r}")
        with self._lock:
            rule = self._rules.get(name)
            if rule is None:
                return
            rule.hits += 1
            if rule.hits < rule.trigger:
                return
            if rule.times > 0 and rule.fired >= rule.times:
                return
            rule.fired += 1
            mode = rule.mode
            delay = rule.delay_seconds
        # act outside the lock: a crash doesn't care, a delay must not
        # serialize unrelated failpoints, and a raise unwinds caller frames
        if mode == "crash":
            os._exit(CRASH_EXIT_STATUS)
        if mode == "delay":
            time.sleep(delay)
            return
        raise FaultInjected(name)

    def counters(self) -> Dict[str, Tuple[int, int]]:
        """``{name: (hits, fired)}`` for every armed rule (observability)."""
        with self._lock:
            return {name: (rule.hits, rule.fired) for name, rule in self._rules.items()}


# ----------------------------------------------------------------------
# the process-global injector
# ----------------------------------------------------------------------
_INJECTOR = FaultInjector()
_ENV_LOADED = False
_ENV_LOCK = threading.Lock()


def injector() -> FaultInjector:
    """The process-global injector (arming it affects every failpoint)."""
    _load_env_once()
    return _INJECTOR


def install(spec: str) -> FaultInjector:
    """Arm the global injector from a spec string (see ``configure``)."""
    _INJECTOR.configure(spec)
    return _INJECTOR


def clear() -> None:
    """Disarm every failpoint (tests call this in teardown)."""
    _INJECTOR.disarm()


def _load_env_once() -> None:
    global _ENV_LOADED
    if _ENV_LOADED:
        return
    with _ENV_LOCK:
        if _ENV_LOADED:
            return
        spec = os.environ.get(FAILPOINTS_ENV)
        if spec:
            _INJECTOR.configure(spec)
        _ENV_LOADED = True


def maybe_fire(name: str) -> None:
    """Evaluate failpoint ``name``; no-op (one attribute read) when unarmed."""
    _load_env_once()
    if not _INJECTOR.active:
        return
    _INJECTOR.hit(name)


def seeded_crash_schedule(
    seed: int, failpoint: str, max_trigger: int = 5
) -> Tuple[str, int]:
    """A reproducible ``(spec, trigger)`` arming ``failpoint`` to crash.

    The chaos matrix uses this to vary *which* hit of a failpoint kills the
    process across runs while staying reproducible from the seed.
    """
    rng = random.Random((seed, failpoint).__repr__())
    trigger = rng.randint(1, max_trigger)
    return f"{failpoint}=crash@{trigger}", trigger


def crashable_failpoints() -> List[str]:
    """The failpoints the chaos crash matrix iterates (all of them)."""
    return list(FAILPOINTS)


__all__ = [
    "CRASH_EXIT_STATUS",
    "FAILPOINTS",
    "FAILPOINTS_ENV",
    "FailpointError",
    "FaultInjected",
    "FaultInjector",
    "clear",
    "crashable_failpoints",
    "injector",
    "install",
    "maybe_fire",
    "seeded_crash_schedule",
]
