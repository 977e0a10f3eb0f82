"""Single-flight: identical concurrent accesses run once.

The prefix page cache, the VPS result cache, the execution context and
the MQO subplan registry all coalesce concurrent identical accesses by
one rule: the first caller on a key *leads* and does the work, later
callers *wait* and share its result.  :class:`FlightTable` holds the
flights and borrows its owner's lock, so an owner's cache lookup and its
flight claim stay one lock hold.  A leader works inside
:meth:`FlightTable.lead`, which fails whatever it leaves unresolved, so
waiters are never stranded.  A failure is never shared: its waiters wake
and the first to claim again leads (promotion).  A waiter whose ``poll``
raises just leaves (detach).  DESIGN.md §11 has the whole contract.

Imports nothing from :mod:`repro`, so every layer may use it.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator

#: Real seconds between ``poll`` calls in a thread wait.
POLL_SECONDS = 0.05


class Flight:
    """One in-progress access that concurrent identical callers share."""

    __slots__ = ("key", "event", "result", "error")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.event = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.event.is_set()

    def wait(self, poll: Callable[[], None] | None = None) -> bool:
        """Block until the leader finishes; True when it succeeded (see
        ``result``), False when the caller should claim again.  ``poll``
        runs every :data:`POLL_SECONDS` and raises to detach."""
        if poll is None:
            self.event.wait()
        else:
            while not self.event.wait(POLL_SECONDS):
                poll()
        return self.error is None

    async def wait_async(
        self, interval: float, poll: Callable[[], None] | None = None
    ) -> bool:
        """:meth:`wait` for a coroutine: ``poll``, then sleep ``interval``
        on the running loop, until done.  On the fabric's virtual-time
        loop the sleeps cost no real time and keep a deterministic order."""
        while not self.event.is_set():
            if poll is not None:
                poll()
            await asyncio.sleep(interval)
        return self.error is None


class FlightTable:
    """The key → :class:`Flight` table of one owner, guarded by the owner's
    ``lock`` (a ``threading.Lock`` or ``RLock``)."""

    def __init__(self, lock: Any) -> None:
        self._lock = lock
        self._flights: dict[Hashable, Flight] = {}

    def __len__(self) -> int:
        return len(self._flights)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._flights

    def claim(self, key: Hashable) -> tuple[Flight, bool]:
        """The flight on ``key`` and whether the caller leads it (opened it
        just now).  The caller holds the owner's lock."""
        flight = self._flights.get(key)
        if flight is not None:
            return flight, False
        flight = self._flights[key] = Flight(key)
        return flight, True

    def resolve(
        self, flight: Flight, result: Any, store: Callable[[], Any] | None = None
    ) -> Any:
        """Publish a leader's result: under the owner's lock run ``store``
        (the owner keeping the result) and retire the flight, then wake
        the waiters.  Returns what ``store`` returned."""
        with self._lock:
            kept = store() if store is not None else None
            self._retire(flight)
        flight.result = result
        flight.event.set()
        return kept

    def fail(self, flight: Flight, error: BaseException) -> None:
        """Retire a leader's flight without a result.  Its waiters wake,
        see ``error`` and claim again; the first of them leads."""
        with self._lock:
            self._retire(flight)
        flight.error = error
        flight.event.set()

    def _retire(self, flight: Flight) -> None:
        if self._flights.get(flight.key) is flight:
            del self._flights[flight.key]

    @contextmanager
    def lead(self, *flights: Flight) -> Iterator[None]:
        """The leader scope over ``flights``: every one still open when the
        scope exits is failed — with the exception that ended the scope,
        or, on a normal exit, with a :class:`LeaderExited`."""
        try:
            yield
        except BaseException as exc:
            for flight in flights:
                if not flight.done:
                    self.fail(flight, exc)
            raise
        for flight in flights:
            if not flight.done:
                self.fail(flight, LeaderExited(flight.key))


class LeaderExited(RuntimeError):
    """A leader left its scope without resolving its flight."""
