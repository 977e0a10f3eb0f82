"""Shared subplan execution: single-flight over plan fingerprints.

The :class:`SubplanRegistry` is the runtime half of the multi-query
optimizer.  Concurrent queries whose maximal objects canonicalize to the
same fingerprint (:func:`repro.relational.planner.plan_fingerprint`)
coalesce onto ONE evaluation: the first arrival becomes the *leader* and
runs the subplan under its own execution context; every later arrival
becomes a *subscriber* that waits on the leader's flight and shares the
resulting :class:`~repro.relational.relation.Relation` (immutable, so
sharing the object is safe).  The flights are :mod:`repro.singleflight`,
as for the engine's per-``(relation, bindings)`` fetches, one level up:
a cancelled subscriber detaches and the flight runs on for the others
(``mqo.detached``); a failed or cancelled leader's survivors loop and the
first re-runs the subplan (``mqo.promotions``); a failure is never
shared, so one query's transient fault cannot poison its neighbors.

The registry holds no results beyond the flight itself: sharing is
strictly *in-flight*, so staleness never outlives the queries being
answered (cross-time reuse is the containment layer's job, which carries
revision-vector validation).

:class:`BatchGate` is the admission-side companion: a short batching
window that releases near-simultaneous arrivals together, turning
"16 clients asked within a few milliseconds" into "16 queries in flight
at once" so their identical fingerprints actually overlap.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.relational.relation import Relation
from repro.singleflight import FlightTable


#: The attribute of a subscriber's span holding the hosts the leader
#: fetched from, each at the revision it was read at (see
#: :meth:`SubplanRegistry.run`).
FETCHED_ATTR = "fetched"


class SubplanRegistry:
    """In-flight fingerprint → shared evaluation, with metrics.

    ``revisions`` returns the live host → revision map (absent = 0).  The
    leader samples it before it runs, so a subscriber — whose own trace
    holds no fetches — can still say which hosts its rows came from, at
    which revisions, and a gold answer persisted from them goes stale
    with the first write to any of those hosts.
    """

    def __init__(
        self,
        metrics: Any = None,
        revisions: Callable[[], dict[str, int]] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._flights = FlightTable(self._lock)
        self.metrics = metrics
        self._revisions = revisions

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def inflight(self) -> int:
        """How many distinct subplans are currently executing."""
        with self._lock:
            return len(self._flights)

    def run(
        self,
        fingerprint: str,
        context: Any,
        thunk: Callable[[], Relation | None],
        span: Any = None,
    ) -> Relation | None:
        """Evaluate ``thunk`` once per in-flight ``fingerprint``.

        The caller that finds no flight open becomes the leader and runs
        ``thunk`` on its own thread/context; concurrent callers with the
        same fingerprint wait (cancellably, via ``context.check_cancelled``)
        and share the leader's result.  See the module docstring for the
        failure and cancellation ladder.
        """
        poll = getattr(context, "check_cancelled", None)
        while True:
            with self._lock:
                flight, leader = self._flights.claim(fingerprint)
            if leader:
                self._count("mqo.shared_leads")
                if span is not None:
                    span.attrs["mqo"] = "lead"
                before = self._revisions() if self._revisions is not None else {}
                with self._flights.lead(flight):
                    result = thunk()
                    # host → revision the leader's fetches read it at.
                    fetched = {} if span is None else {
                        host: before.get(host, 0) for host in fetched_hosts(span)
                    }
                    self._flights.resolve(flight, (result, fetched))
                return result
            # Subscriber: wait out the leader, staying cancellable.
            try:
                shared = flight.wait(
                    None if poll is None else lambda: poll("mqo:%s" % fingerprint[:12])
                )
            except BaseException:
                # This subscriber is gone; the flight (and its other
                # subscribers) live on — detach, don't kill.
                self._count("mqo.detached")
                raise
            if shared:
                result, fetched = flight.result
                self._count("mqo.shared_hits")
                if span is not None:
                    span.attrs["mqo"] = "hit"
                    span.attrs[FETCHED_ATTR] = dict(fetched)
                return result
            # The leader failed or was cancelled out from under us: its
            # flight is already retired, so loop — whoever re-enters first
            # promotes to leader and re-runs.
            self._count("mqo.promotions")


def fetched_hosts(span: Any) -> set[str]:
    """The hosts fetched from under ``span`` — its own fetch spans, and
    the hosts its shared-subplan hits inherited from their leaders."""
    hosts: set[str] = set()
    for node in span.walk():
        if node.kind == "fetch":
            hosts.add(str(node.attrs.get("host", "")))
        hosts.update(node.attrs.get(FETCHED_ATTR, ()))
    hosts.discard("")
    return hosts


def answer_revisions(span: Any, before: dict[str, int]) -> dict[str, int]:
    """The revision vector of an answer computed under ``span``: every
    host it was derived from, at the revision it was read at — ``before``
    (the live revisions sampled before the query ran), or the revision a
    shared leader inherited it at where that is older.  A write that lands
    while the query runs, or between its fetches and its persist, leaves
    the vector behind the live revision, so the answer is never current."""
    read_at = {host: before.get(host, 0) for host in fetched_hosts(span)}
    for node in span.walk():
        for host, revision in node.attrs.get(FETCHED_ATTR, {}).items():
            read_at[host] = min(revision, read_at[host])
    return dict(sorted(read_at.items()))


class BatchGate:
    """A short admission batching window for the service dispatch path.

    The first arrival opens a window of ``window_seconds``; every arrival
    before it closes waits for the SAME deadline, so the batch releases
    together and overlapping fingerprints coalesce in the registry.  The
    wait is bounded by the window (observable via the caller's
    ``mqo.window_wait_seconds`` histogram) and cancellable: ``admit``
    polls ``context.check_cancelled`` while it sleeps.
    """

    def __init__(self, window_seconds: float, metrics: Any = None) -> None:
        if window_seconds <= 0:
            raise ValueError(
                "window_seconds must be > 0; got %r" % window_seconds
            )
        self.window_seconds = window_seconds
        self.metrics = metrics
        self._lock = threading.Lock()
        self._deadline: float | None = None

    def admit(self, context: Any = None) -> float:
        """Hold the caller until the current window closes; returns the
        seconds actually waited."""
        start = time.monotonic()
        with self._lock:
            if self._deadline is None or start >= self._deadline:
                self._deadline = start + self.window_seconds
            deadline = self._deadline
        poll = getattr(context, "check_cancelled", None) if context else None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(remaining, 0.02))
            if poll is not None:
                poll("mqo:batch-window")
        with self._lock:
            if self._deadline == deadline:
                self._deadline = None
        waited = time.monotonic() - start
        if self.metrics is not None:
            self.metrics.histogram("mqo.window_wait_seconds").observe(waited)
        return waited
