"""Admission control: bounded concurrency with a bounded FIFO wait queue.

The HTTP layer must shed load it cannot serve rather than let latency
grow without bound: at most ``max_concurrency`` requests execute at
once, at most ``max_queue`` more wait in arrival order, and no request
waits longer than ``queue_timeout`` seconds.  Everything past those
bounds is rejected *immediately* with enough structure for the app to
answer ``503`` + ``Retry-After`` — the closed-loop benchmark measures
exactly this boundary, and the open-loop section counts the shed.

The gate is **event-loop-agnostic** on purpose: its bookkeeping lives
behind a plain ``threading.Lock`` and each waiter parks on an
``asyncio.Event`` belonging to *its own* loop, signalled cross-thread
via ``call_soon_threadsafe``.  That way one gate serves requests from
any number of event loops (the in-repo test client runs one background
loop; ``asyncio.run``-per-request unit tests run many) without the
"future attached to a different loop" failure mode of module-level
``asyncio.Semaphore``.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Deque, Dict

__all__ = ["AdmissionGate", "AdmissionRejected"]


class AdmissionRejected(Exception):
    """The gate refused this request.

    ``reason`` is ``"queue_full"`` (the wait queue was already at
    capacity on arrival) or ``"timeout"`` (the request waited its full
    ``queue_timeout`` without a slot opening).  ``retry_after`` is the
    whole-second hint for the ``Retry-After`` header."""

    def __init__(self, reason: str, retry_after: int) -> None:
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(f"admission rejected: {reason}")


class _Waiter:
    """One queued request.  State transitions happen under the gate
    lock; the event is only ever *set* (never awaited) cross-thread."""

    __slots__ = ("loop", "event", "admitted", "abandoned")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.event = asyncio.Event()
        self.admitted = False
        self.abandoned = False


class AdmissionGate:
    """``async with gate:`` around the work each request performs."""

    def __init__(
        self,
        max_concurrency: int = 8,
        max_queue: int = 32,
        queue_timeout: float = 5.0,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._lock = threading.Lock()
        self._active = 0
        self._waiters: Deque[_Waiter] = deque()
        self._admitted = 0
        self._rejected_queue_full = 0
        self._rejected_timeout = 0

    # ------------------------------------------------------------------
    @property
    def retry_after(self) -> int:
        """Whole seconds a rejected client should back off: the queue
        drain time is unknowable here, so the queue timeout is the
        honest upper bound on how stale our 'busy' verdict can be."""
        return max(1, round(self.queue_timeout))

    async def acquire(self) -> None:
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._active < self.max_concurrency:
                self._active += 1
                self._admitted += 1
                return
            if len(self._waiters) >= self.max_queue:
                self._rejected_queue_full += 1
                raise AdmissionRejected("queue_full", self.retry_after)
            waiter = _Waiter(loop)
            self._waiters.append(waiter)
        try:
            await asyncio.wait_for(waiter.event.wait(), timeout=self.queue_timeout)
        except asyncio.TimeoutError:
            with self._lock:
                if waiter.admitted:
                    # A slot was handed over in the same instant the
                    # timeout fired; the hand-off wins — we hold it.
                    self._admitted += 1
                    return
                waiter.abandoned = True
                try:
                    self._waiters.remove(waiter)
                except ValueError:  # pragma: no cover - defensive
                    pass
                self._rejected_timeout += 1
            raise AdmissionRejected("timeout", self.retry_after) from None
        except asyncio.CancelledError:
            # The request itself was cancelled (client gone, outer
            # timeout).  If a slot was already handed to us we must put
            # it back, otherwise it would leak with no owner to release.
            with self._lock:
                owned = waiter.admitted
                waiter.abandoned = not owned
                if not owned:
                    try:
                        self._waiters.remove(waiter)
                    except ValueError:  # pragma: no cover - defensive
                        pass
            if owned:
                self.release()
            raise
        with self._lock:
            self._admitted += 1

    def release(self) -> None:
        """Free a slot: hand it to the oldest live waiter, else retire it."""
        with self._lock:
            while self._waiters:
                waiter = self._waiters.popleft()
                if waiter.abandoned:
                    continue
                waiter.admitted = True
                try:
                    waiter.loop.call_soon_threadsafe(waiter.event.set)
                except RuntimeError:  # waiter's loop already closed
                    waiter.admitted = False
                    waiter.abandoned = True
                    continue
                # Slot handed over: _active is unchanged (the waiter now
                # owns the slot this releaser gave up).
                return
            self._active -= 1

    async def __aenter__(self) -> "AdmissionGate":
        await self.acquire()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        self.release()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "active": self._active,
                "waiting": len(self._waiters),
                "max_concurrency": self.max_concurrency,
                "max_queue": self.max_queue,
                "admitted": self._admitted,
                "rejected_queue_full": self._rejected_queue_full,
                "rejected_timeout": self._rejected_timeout,
            }
