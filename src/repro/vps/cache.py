"""Result caching for VPS fetches — staleness-aware and observable.

The paper's conclusions call out caching (with parallelization) as the key
technique for acceptable response times when querying many sites.  This is
that cache: a bounded memo of ``(relation, bound-values) -> Relation`` that
sits in front of a :class:`~repro.vps.schema.VpsSchema` and satisfies the
same Catalog protocol, so it can be slotted under the logical layer
transparently.

The cache is an *always-present* layer of the webbase: a
:class:`CachePolicy` decides whether it stores anything.  With the no-op
policy every fetch passes straight through (the cold ablation arm); with
an LRU policy results are shared across queries.  Either way there is
exactly one fetch path — no ``cache or vps`` branching at call sites.

Because the underlying sites are *dynamic*, a cross-query cache is only
safe if it can notice the world moving underneath it.  Three mechanisms
cover that:

* **TTLs** — a default and per-relation time-to-live bound how long an
  entry may be served without revalidation (``CachePolicy.ttl_seconds`` /
  ``relation_ttls``);
* **revision stamps** — every entry records the navigation-map revision of
  its host at store time.  When site maintenance auto-absorbs a change
  (:func:`~repro.navigation.maintenance.apply_auto_changes`), the host's
  revision is bumped and the host's entries are evicted, so nothing
  captured under the old map is ever served silently;
* **quarantine** — a change that needs *manual* intervention (a new form
  attribute, a vanished link) puts the host's entries in quarantine:
  depending on ``CachePolicy.stale_mode`` they are either served with an
  explicit staleness flag (``cache stale`` on the trace span, counted as
  ``cache.stale_serves``) or bypassed entirely until the designer
  re-demonstrates the flow and the quarantine is lifted.

Concurrent misses on the same key coalesce into one upstream fetch
(:mod:`repro.singleflight`); a failure is never stored or shared, so a
transient fault cannot poison the cache.

All cache traffic is counted into a :class:`~repro.core.metrics.MetricsRegistry`
and, when a fetch carries an execution context, mirrored onto trace spans
(``cache hit`` / ``miss`` / ``stale``), so ``python -m repro metrics`` can
reconcile counters against spans.
"""

from __future__ import annotations

import threading
import time

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.metrics import MetricsRegistry
from repro.relational.bindings import BindingSets
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.singleflight import Flight, FlightTable
from repro.vps.schema import VpsSchema

STALE_MODES = ("refetch", "serve_stale")


@dataclass(frozen=True)
class CachePolicy:
    """Whether, and how much — and for how long — the cache may store.

    ``ttl_seconds`` is the default entry lifetime (``None`` = no expiry);
    ``relation_ttls`` overrides it per relation.  ``stale_mode`` picks what
    happens to entries of a quarantined host (one with unabsorbed manual
    site changes): ``"refetch"`` bypasses them, ``"serve_stale"`` serves
    them flagged as stale.
    """

    enabled: bool = True
    max_entries: int = 1024
    ttl_seconds: float | None = None
    relation_ttls: tuple[tuple[str, float], ...] = ()
    stale_mode: str = "refetch"

    def __post_init__(self) -> None:
        if self.stale_mode not in STALE_MODES:
            raise ValueError(
                "stale_mode must be one of %s; got %r" % (STALE_MODES, self.stale_mode)
            )

    @classmethod
    def noop(cls) -> "CachePolicy":
        """A disabled cache: every fetch goes to the source."""
        return cls(enabled=False, max_entries=0)

    @classmethod
    def lru(
        cls,
        max_entries: int = 1024,
        ttl_seconds: float | None = None,
        relation_ttls: Mapping[str, float] | None = None,
        stale_mode: str = "refetch",
    ) -> "CachePolicy":
        """A bounded least-recently-used cache shared across queries."""
        return cls(
            enabled=True,
            max_entries=max_entries,
            ttl_seconds=ttl_seconds,
            relation_ttls=tuple(sorted((relation_ttls or {}).items())),
            stale_mode=stale_mode,
        )

    def ttl_for(self, relation: str) -> float | None:
        """The effective TTL of one relation's entries."""
        for name, ttl in self.relation_ttls:
            if name == relation:
                return ttl
        return self.ttl_seconds


@dataclass
class CacheEntry:
    """One stored result, stamped for staleness checks."""

    value: Relation
    relation: str
    host: str
    revision: int  # the host's navigation-map revision at store time
    stored_at: float  # cache-clock seconds
    expires_at: float | None  # None = never expires
    warmed: bool = False  # loaded from the tiered store, not fetched live


class ResultCache:
    """The always-present cache layer over a VPS schema (Catalog-compatible).

    Thread-safe: parallel execution contexts fetch through one shared
    instance.  An :class:`~repro.core.execution.ExecutionContext` passed to
    :meth:`fetch` rides through to the VPS layer on misses, so uncached
    fetches still get the engine's workers, retries and tracing — and
    cache hits are recorded as trace spans on it.

    ``clock`` is the TTL time source (seconds, monotonic); tests inject a
    fake one to step time deterministically.
    """

    def __init__(
        self,
        inner: VpsSchema,
        policy: CachePolicy | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.inner = inner
        self.policy = policy or CachePolicy.lru()
        self.metrics = metrics or MetricsRegistry()
        self._clock = clock or time.monotonic
        self._cache: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._revisions: dict[str, int] = {}
        self._quarantined: set[str] = set()
        self._lock = threading.Lock()
        self._flights = FlightTable(self._lock)
        self.hits = 0
        self.misses = 0
        # Optional persistence underneath (repro.store.TieredStore): filled
        # results are mirrored to silver, revision bumps and quarantines to
        # bronze, and a restart warms from the store instead of refetching.
        self.store: Any = None
        # Optional cluster federation (repro.cluster.federation): flight
        # leaders consult the cross-shard cache before fetching live, and
        # publish their fills so sibling shards amortize the same prefix
        # walk.  Claims extend local single-flight across shards: when a
        # sibling already holds the fill claim, this shard polls for the
        # published result (up to ``federation_wait_seconds``) instead of
        # duplicating the walk.  Strictly fail-open: a federation error is
        # a miss, a denied-then-timed-out claim falls back to fetching.
        self.federation: Any = None
        self.federation_wait_seconds = 30.0

    @property
    def max_entries(self) -> int:
        return self.policy.max_entries

    def base_schema(self, name: str) -> Schema:
        return self.inner.base_schema(name)

    def base_binding_sets(self, name: str) -> BindingSets:
        return self.inner.base_binding_sets(name)

    # -- maintenance-driven invalidation ------------------------------------

    def host_of(self, name: str) -> str:
        """The host serving one relation ('' when the inner catalog is a
        test double without host information)."""
        host_of = getattr(self.inner, "host_of", None)
        if host_of is not None:
            return host_of(name)
        return ""

    def revision(self, host: str) -> int:
        """The navigation-map revision entries of ``host`` are stamped with."""
        with self._lock:
            return self._revisions.get(host, 0)

    def revisions(self) -> dict[str, int]:
        """Every bumped host's revision (a copy; an absent host is at 0)."""
        with self._lock:
            return dict(self._revisions)

    def bump_revision(self, host: str) -> int:
        """An auto-absorbed site change: advance the host's map revision and
        evict its entries.  Returns the number of entries evicted."""
        with self._lock:
            self._revisions[host] = revision = self._revisions.get(host, 0) + 1
            evicted = self._evict_host(host, "cache.invalidations")
        if self.store is not None:
            self.store.record_revision(host, revision)
        self._federation_stamp(host, revision)
        return evicted

    def quarantine(self, host: str) -> int:
        """A manual-intervention site change: flag the host's entries as
        suspect.  Returns how many entries are affected."""
        with self._lock:
            self._quarantined.add(host)
            affected = sum(1 for e in self._cache.values() if e.host == host)
        if self.store is not None:
            self.store.record_quarantine(host, True)
        return affected

    def clear_quarantine(self, host: str, evict: bool = True) -> int:
        """The designer re-demonstrated the flow: lift the quarantine and
        (by default) drop the pre-change entries."""
        revision = None
        with self._lock:
            self._quarantined.discard(host)
            if evict:
                self._revisions[host] = revision = self._revisions.get(host, 0) + 1
                evicted = self._evict_host(host, "cache.invalidations")
            else:
                evicted = 0
        if self.store is not None:
            self.store.record_quarantine(host, False)
            if revision is not None:
                self.store.record_revision(host, revision)
        if revision is not None:
            self._federation_stamp(host, revision)
        return evicted

    def quarantined_hosts(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._quarantined)

    def adopt_revision(self, host: str, revision: int) -> bool:
        """Shard takeover: adopt a (higher) revision observed elsewhere.

        Entries stamped with the old revision die lazily at their next
        lookup (:meth:`_live_entry`'s revision check), exactly as after a
        :meth:`bump_revision`.  Never moves a revision backwards."""
        moved = False
        with self._lock:
            if revision > self._revisions.get(host, 0):
                self._revisions[host] = revision
                moved = True
        if moved and self.store is not None:
            self.store.record_revision(host, revision)
        if moved:
            self._federation_stamp(host, revision)
        return moved

    # -- persistence ---------------------------------------------------------

    def attach_store(self, store: Any) -> None:
        """Layer a tiered store underneath: fills mirror to silver, bumps
        and quarantines to bronze.

        Revision and quarantine state are adopted from the store *here*,
        before any warm load or drift check — so a restart's drift bump
        lands *on top of* the persisted revision instead of colliding
        with it (a fresh cache starts at revision 0; bumping 0 → 1 would
        alias the stamp of segments persisted after an earlier sweep)."""
        self.store = store
        with self._lock:
            for host, revision in store.revisions().items():
                if revision > self._revisions.get(host, 0):
                    self._revisions[host] = revision
            self._quarantined.update(store.quarantined())

    def warm_from_store(self, store: Any = None) -> int:
        """Load current-revision silver segments into the cache (restart).

        Every candidate segment is admitted only if its stamp equals the
        host's current revision (adopted at :meth:`attach_store`, plus
        any drift bumps since) — keyed by revision, never by eviction
        order, so an entry persisted before a later bump can never
        resurface (the invariant the store satellite pins).  Returns the
        number of entries loaded.

        ``store`` warms from a *foreign* store instead of the attached
        one — shard takeover reads the dead sibling's silver tier under
        the revisions adopted from it, without adopting its logs.
        """
        source = store if store is not None else self.store
        if source is None or not self.policy.enabled:
            return 0
        loaded = 0
        with self._lock:
            now = self._clock()
            for entry in source.warm_entries():
                key = (entry.relation, entry.key)
                if key in self._cache:
                    continue
                if entry.revision != self._revisions.get(entry.host, 0):
                    continue
                ttl = self.policy.ttl_for(entry.relation)
                self._cache[key] = CacheEntry(
                    value=entry.value,
                    relation=entry.relation,
                    host=entry.host,
                    revision=entry.revision,
                    stored_at=now,
                    expires_at=None if ttl is None else now + ttl,
                    warmed=True,
                )
                if len(self._cache) > self.policy.max_entries:
                    self._cache.popitem(last=False)
                    self.metrics.counter("cache.evictions").inc()
                loaded += 1
            if loaded:
                self.metrics.gauge("cache.entries").set(len(self._cache))
        if loaded:
            self.metrics.counter("store.warm_loads").inc(loaded)
        return loaded

    def _evict_host(self, host: str, counter: str) -> int:
        """Drop every entry of one host (caller holds the lock)."""
        stale = [k for k, e in self._cache.items() if e.host == host]
        for key in stale:
            del self._cache[key]
        if stale:
            self.metrics.counter(counter).inc(len(stale))
            self.metrics.gauge("cache.entries").set(len(self._cache))
        return len(stale)

    def invalidate(self, name: str | None = None) -> int:
        """Drop cached results (all of them, or one relation's); returns the
        number of entries removed."""
        with self._lock:
            if name is None:
                removed = len(self._cache)
                self._cache.clear()
            else:
                stale = [k for k in self._cache if k[0] == name]
                for key in stale:
                    del self._cache[key]
                removed = len(stale)
            if removed:
                self.metrics.counter("cache.invalidations").inc(removed)
                self.metrics.gauge("cache.entries").set(len(self._cache))
            return removed

    # -- the fetch path ------------------------------------------------------

    def _fetch_inner(self, name: str, given: dict[str, Any], context: Any) -> Relation:
        if context is None:
            return self.inner.fetch(name, given)
        return self.inner.fetch(name, given, context=context)

    def _key(self, name: str, given: dict[str, Any]) -> tuple:
        return (name, tuple(sorted((a, v) for a, v in given.items() if v is not None)))

    def _live_entry(self, key: tuple, host: str) -> CacheEntry | None:
        """The entry under ``key`` if it is still servable; evicts revision
        mismatches and TTL expiries (caller holds the lock)."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        if entry.revision != self._revisions.get(host, 0):
            del self._cache[key]
            self.metrics.counter("cache.invalidations").inc()
            self.metrics.gauge("cache.entries").set(len(self._cache))
            return None
        if entry.expires_at is not None and self._clock() >= entry.expires_at:
            del self._cache[key]
            self.metrics.counter("cache.expirations").inc()
            self.metrics.gauge("cache.entries").set(len(self._cache))
            return None
        return entry

    def _stale_entry(self, key: tuple, host: str) -> CacheEntry | None:
        """The entry under ``key`` for a *flagged-stale* serve: the map
        revision must still match (a superseded map is never served), but
        TTL expiry is forgiven — a quarantined host cannot be refetched to
        revalidate, and serving a known-stale entry past its TTL is
        exactly what ``serve_stale`` promises (caller holds the lock)."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        if entry.revision != self._revisions.get(host, 0):
            del self._cache[key]
            self.metrics.counter("cache.invalidations").inc()
            self.metrics.gauge("cache.entries").set(len(self._cache))
            return None
        return entry

    def _record_hit(
        self, name: str, host: str, context: Any, stale: bool, warmed: bool = False
    ) -> None:
        if stale:
            self.metrics.counter("cache.stale_serves").inc()
        else:
            self.metrics.counter("cache.hits").inc()
        if warmed:
            self.metrics.counter("store.warm_hits").inc()
        if context is not None:
            with context.span("fetch", name, host=host, layer="cache") as span:
                span.cache = "stale" if stale else "hit"

    def _store(self, key: tuple, name: str, host: str, revision: int, value: Relation) -> bool:
        """Insert one fetched result (caller holds the lock); skipped when
        the host's revision moved mid-fetch — the result may straddle the
        change, so it cannot be trusted across queries.  Returns whether
        the entry was stored (callers mirror stored entries to silver)."""
        if revision != self._revisions.get(host, 0):
            return False
        now = self._clock()
        ttl = self.policy.ttl_for(name)
        self._cache[key] = CacheEntry(
            value=value,
            relation=name,
            host=host,
            revision=revision,
            stored_at=now,
            expires_at=None if ttl is None else now + ttl,
        )
        if len(self._cache) > self.policy.max_entries:
            self._cache.popitem(last=False)
            self.metrics.counter("cache.evictions").inc()
        self.metrics.gauge("cache.entries").set(len(self._cache))
        return True

    def _persist_silver(self, key: tuple, name: str, host: str, revision: int, value: Relation) -> None:
        """Mirror one freshly stored entry to the silver tier (outside the
        cache lock — persistence must never serialize the fetch path)."""
        if self.store is not None:
            self.store.persist_result(name, host, revision, key[1], value)

    def _record_intent(self, key: tuple, host: str, revision: int) -> None:
        """Write-ahead note that an upstream fetch is about to run."""
        if self.store is not None:
            self.store.record_intent(key[0], host, revision, key[1])

    def _federation_stamp(self, host: str, revision: int) -> None:
        """Tell the cluster federation this host's revision moved, so
        sibling shards stop being offered fills captured under the old
        navigation map (fail-open, like every federation call)."""
        fed = self.federation
        if fed is None:
            return
        try:
            fed.publish_revision(host, revision)
        except Exception:  # noqa: BLE001
            pass

    def _federation_lookup(
        self, name: str, host: str, key: tuple, revision: int
    ) -> Relation | None:
        """Ask the cluster federation for this fill (fail-open: any
        transport error, revision mismatch, or absence is just a miss)."""
        fed = self.federation
        if fed is None:
            return None
        try:
            return fed.lookup(name, host, key[1], revision)
        except Exception:  # noqa: BLE001 - the federation must never break a fetch
            return None

    def _federation_publish(
        self, name: str, host: str, key: tuple, revision: int, value: Relation
    ) -> None:
        """Offer one freshly stored fill to the cluster federation."""
        fed = self.federation
        if fed is None:
            return
        try:
            fed.publish(name, host, key[1], revision, value)
        except Exception:  # noqa: BLE001 - fail-open, same as lookup
            pass

    def _federation_claim(self, name: str, key: tuple) -> bool:
        """Try to become the cluster-wide fetcher for this fill.  True
        means fetch (claim won, no federation, an older federation without
        claims, or a bus error — never let coordination block a fetch)."""
        fed = self.federation
        claim = getattr(fed, "claim", None)
        if claim is None:
            return True
        try:
            return bool(claim(name, key[1]))
        except Exception:  # noqa: BLE001 - fail-open
            return True

    def _federation_release(self, name: str, key: tuple) -> None:
        """Give up a claim whose fill failed or was not stored, so waiters
        contend for it instead of running out their wait budget."""
        fed = self.federation
        release = getattr(fed, "release", None)
        if release is None:
            return
        try:
            release(name, key[1])
        except Exception:  # noqa: BLE001 - fail-open
            pass

    def _federation_await(
        self, name: str, host: str, key: tuple, revision: int, context: Any
    ) -> Relation | None:
        """A sibling shard holds the fill claim: poll for its publish,
        periodically re-contending for the claim so an expired holder's
        key is adopted rather than orphaned.  Returns the published fill,
        or None when this shard should fetch after all (claim won, or the
        wait budget lapsed).  Honors cancellation like a coalesced wait.
        """
        poll = getattr(context, "check_cancelled", None)
        deadline = time.monotonic() + self.federation_wait_seconds
        next_claim = time.monotonic() + 0.25
        while time.monotonic() < deadline:
            time.sleep(0.05)
            if poll is not None:
                poll("federated:%s" % name)
            value = self._federation_lookup(name, host, key, revision)
            if value is not None:
                return value
            now = time.monotonic()
            if now >= next_claim:
                next_claim = now + 0.25
                if self._federation_claim(name, key):
                    return None
        return None

    def _resolve_fed_hit(
        self,
        name: str,
        host: str,
        revision: int,
        flight: Flight,
        value: Relation,
        context: Any,
    ) -> None:
        """A federation lookup satisfied this flight: store, account the
        hit, and wake the local coalesced waiters."""

        def store() -> bool:
            self.hits += 1
            return self._store(flight.key, name, host, revision, value)

        stored = self._flights.resolve(flight, value, store)
        self.metrics.counter("cluster.fed_hits").inc()
        if stored:
            self._persist_silver(flight.key, name, host, revision, value)
        self._record_hit(name, host, context, stale=False)

    def _resolve_fill(
        self, name: str, host: str, revision: int, flight: Flight, value: Relation
    ) -> None:
        """A leader fetched ``value`` live: store it, persist and publish
        it when stored (else free the federation claim), and wake the
        local coalesced waiters."""
        key = flight.key
        stored = self._flights.resolve(
            flight, value, lambda: self._store(key, name, host, revision, value)
        )
        if stored:
            self._persist_silver(key, name, host, revision, value)
            self._federation_publish(name, host, key, revision, value)
        elif self.federation is not None:
            # Not stored means not published: free the claim.
            self._federation_release(name, key)

    def _count_miss(self) -> None:
        """A federation-deferred miss verdict: the leader fetches live."""
        with self._lock:
            self.misses += 1
        self.metrics.counter("cache.misses").inc()
        self.metrics.counter("cluster.fed_misses").inc()

    def fetch(
        self, name: str, given: dict[str, Any], context: Any = None
    ) -> Relation:
        if not self.policy.enabled:
            return self._fetch_inner(name, given, context)
        self.metrics.counter("cache.requests").inc()
        key = self._key(name, given)
        host = self.host_of(name)

        # Quarantined host: serve flagged-stale or bypass, never silently.
        if host and host in self.quarantined_hosts():
            if self.policy.stale_mode == "serve_stale":
                # Lookup and LRU touch under ONE lock hold: a concurrent
                # bump_revision between a lookup and a separate touch could
                # evict the key and make move_to_end raise — pinned by
                # tests/test_store_recovery.py (revision-bump regression).
                with self._lock:
                    entry = self._stale_entry(key, host)
                    if entry is not None:
                        self.hits += 1
                        self._cache.move_to_end(key)
                if entry is not None:
                    self._record_hit(name, host, context, stale=True, warmed=entry.warmed)
                    return entry.value
            self.metrics.counter("cache.quarantine_bypass").inc()
            return self._fetch_inner(name, given, context)

        poll = getattr(context, "check_cancelled", None)
        while True:
            with self._lock:
                entry = self._live_entry(key, host)
                if entry is not None:
                    self.hits += 1
                    self._cache.move_to_end(key)
                else:
                    flight, leader = self._flights.claim(key)
                    if leader:
                        revision = self._revisions.get(host, 0)
                        # Invariant: exactly one miss per *upstream fetch*.
                        # Only the flight leader counts one, here, under the
                        # lock; coalesced waiters count a hit when the shared
                        # result arrives.  A waiter promoted to leader after a
                        # failed flight counts a fresh miss — correct, because
                        # its retry is a second upstream fetch.  Pinned by
                        # tests/test_metrics.py::TestSingleFlightMissAccounting.
                        # With a federation attached the verdict waits until
                        # the federation answers: a cross-shard hit is a hit
                        # (span and counter), not a miss that fetched nothing.
                        if self.federation is None:
                            self.misses += 1
                            self.metrics.counter("cache.misses").inc()
            if entry is not None:
                self._record_hit(name, host, context, stale=False, warmed=entry.warmed)
                return entry.value
            if leader:
                with self._flights.lead(flight):
                    return self._lead_fetch(name, given, host, revision, flight, context)
            # Another worker is already fetching this key: wait and share —
            # but keep observing cancellation, so a revoked access stops
            # waiting on a leader it no longer wants.
            self.metrics.counter("cache.coalesced").inc()
            if flight.wait(None if poll is None else lambda: poll("coalesced:%s" % name)):
                with self._lock:
                    self.hits += 1
                self._record_hit(name, host, context, stale=False)
                return flight.result
            # The leader failed; loop and try the fetch ourselves.

    def _lead_fetch(
        self,
        name: str,
        given: dict[str, Any],
        host: str,
        revision: int,
        flight: Flight,
        context: Any,
        claim_denied: bool = False,
    ) -> Relation:
        """The flight leader's fill: the federation first (when attached),
        else one live fetch.  Runs inside the flight's leader scope, so a
        failure — never stored, never shared — wakes the waiters to retry.
        ``claim_denied``: a batch already found a sibling shard holding
        this fill's claim, so go straight to waiting for its publish."""
        key = flight.key
        try:
            if self.federation is not None:
                if claim_denied:
                    value = self._federation_await(name, host, key, revision, context)
                else:
                    value = self._federation_lookup(name, host, key, revision)
                    if value is None and not self._federation_claim(name, key):
                        # A sibling shard is already walking this fill:
                        # wait for its publish instead of duplicating it.
                        self.metrics.counter("cluster.fed_waits").inc()
                        value = self._federation_await(
                            name, host, key, revision, context
                        )
                if value is not None:
                    self._resolve_fed_hit(name, host, revision, flight, value, context)
                    return value
                self._count_miss()
            self._record_intent(key, host, revision)
            result = self._fetch_inner(name, given, context)
        except BaseException:
            # A claim is released only by its holder: a no-op otherwise.
            if self.federation is not None:
                self._federation_release(name, key)
            raise
        self._resolve_fill(name, host, revision, flight, result)
        return result

    def _fetch_inner_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any
    ) -> list[Relation]:
        fetch_batch = getattr(self.inner, "fetch_batch", None)
        if fetch_batch is None:
            return [self._fetch_inner(name, given, context) for given in givens]
        if context is None:
            return fetch_batch(name, givens)
        return fetch_batch(name, givens, context=context)

    def fetch_batch(
        self, name: str, givens: list[dict[str, Any]], context: Any = None
    ) -> list[Relation]:
        """Fetch one relation for a batch of probe bindings, results in
        ``givens`` order.

        Cached keys are served as hits; the distinct misses lead one inner
        batch fetch (stored and announced to coalesced waiters exactly like
        single-flight leaders); keys already in flight elsewhere fall back
        to the per-key path, which waits and shares.  Failures abandon the
        whole lead batch un-stored — waiters retry themselves, preserving
        the never-share-a-failure invariant.
        """
        host = self.host_of(name)
        if not self.policy.enabled:
            return self._fetch_inner_batch(name, givens, context)
        if len(givens) <= 1 or (host and host in self.quarantined_hosts()):
            return [self.fetch(name, given, context=context) for given in givens]
        keys = [self._key(name, given) for given in givens]
        results: dict[tuple, Relation] = {}
        hit_keys: list[tuple] = []
        leads: list[tuple[Flight, dict[str, Any]]] = []
        with self._lock:
            revision = self._revisions.get(host, 0)
            seen: set[tuple] = set()
            for key, given in zip(keys, givens):
                if key in seen:
                    continue  # duplicate within the batch: one lookup
                seen.add(key)
                entry = self._live_entry(key, host)
                if entry is not None:
                    self.metrics.counter("cache.requests").inc()
                    self.hits += 1
                    self._cache.move_to_end(key)
                    results[key] = entry.value
                    hit_keys.append((key, entry.warmed))
                elif key not in self._flights:
                    self.metrics.counter("cache.requests").inc()
                    leads.append((self._flights.claim(key)[0], given))
                    if self.federation is None:
                        self.misses += 1
                        self.metrics.counter("cache.misses").inc()
                # else: a foreign flight owns it — resolved below by the
                # per-key path, which waits, shares, and does its own
                # request/hit accounting (counting here too would double
                # count the lookup).
        for key, warmed in hit_keys:
            self._record_hit(name, host, context, stale=False, warmed=warmed)
        # The batch leads every flight it opened: federation hits first
        # (when attached), then one inner batch fetch, then the fills a
        # sibling shard had claimed.  A failure fails every flight it has
        # not resolved yet.
        with self._flights.lead(*(flight for flight, _ in leads)):
            awaited: list[tuple[Flight, dict[str, Any]]] = []
            if leads and self.federation is not None:
                # Resolve as many lead keys as the federation holds before
                # paying for the inner batch fetch (same hit-vs-miss verdict
                # deferral as the single-key path).  Keys a sibling shard has
                # claimed are set aside: they resolve after our own batch
                # fetch, by which time the sibling has likely published.
                remaining: list[tuple[Flight, dict[str, Any]]] = []
                for flight, given in leads:
                    value = self._federation_lookup(name, host, flight.key, revision)
                    if value is not None:
                        self._resolve_fed_hit(name, host, revision, flight, value, context)
                        results[flight.key] = value
                    elif not self._federation_claim(name, flight.key):
                        self.metrics.counter("cluster.fed_waits").inc()
                        awaited.append((flight, given))
                    else:
                        self._count_miss()
                        remaining.append((flight, given))
                leads = remaining
            if leads:
                for flight, _ in leads:
                    self._record_intent(flight.key, host, revision)
                try:
                    fetched = self._fetch_inner_batch(
                        name, [given for _, given in leads], context
                    )
                except BaseException:
                    if self.federation is not None:
                        for flight, _ in leads:
                            self._federation_release(name, flight.key)
                    raise
                for (flight, _), value in zip(leads, fetched):
                    self._resolve_fill(name, host, revision, flight, value)
                    results[flight.key] = value
            for flight, given in awaited:
                # A sibling shard claimed these fills; by now (after our own
                # batch fetch ran) most are published.  Any that are not get
                # the same wait-then-fetch treatment as the single-key path.
                results[flight.key] = self._lead_fetch(
                    name, given, host, revision, flight, context, claim_denied=True
                )
        return [
            results[key]
            if key in results
            else self.fetch(name, given, context=context)
            for key, given in zip(keys, givens)
        ]

    @property
    def stats(self) -> dict[str, int]:
        counters = self.metrics.snapshot()["counters"]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "evictions": int(counters.get("cache.evictions", 0)),
            "expirations": int(counters.get("cache.expirations", 0)),
            "invalidations": int(counters.get("cache.invalidations", 0)),
            "stale_serves": int(counters.get("cache.stale_serves", 0)),
            "coalesced": int(counters.get("cache.coalesced", 0)),
        }


class CachingVps(ResultCache):
    """Backwards-compatible LRU cache (the pre-engine bolt-on interface)."""

    def __init__(self, inner: VpsSchema, max_entries: int = 1024) -> None:
        super().__init__(inner, CachePolicy.lru(max_entries))
