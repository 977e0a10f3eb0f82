"""The tiered persistent store: bronze → silver → gold.

Medallion layering for the webbase's state, one append-only
:class:`~repro.store.log.RecordLog` per tier:

bronze (``bronze.log``)
    The write-ahead raw layer: every page the simulated Web served
    (request key + response bytes), every fetch *intent* (logged before
    the fetch runs), and every revision bump / quarantine mark.  The
    other tiers are pure functions of bronze — that is what
    ``python -m repro store rebuild`` proves.

silver (``silver.log``)
    Extracted VPS relations keyed ``(host, relation, revision)``:
    immutable segments written when the result cache fills.  Only
    segments whose revision stamp matches the host's *current* revision
    are ever served (warm restart) — superseded revisions are dead
    weight until compaction drops them.

gold (``gold.log``)
    Materialized UR answers and standing-query snapshots, each carrying
    the revision vector of the hosts it was derived from.  An answer is
    current iff every dependency revision still matches; the same bumps
    that evict the result cache invalidate gold, with no extra
    bookkeeping.

A :class:`~repro.store.faults.StorageFault` threaded through the store
crashes writes at any global byte offset; after a crash the store turns
into a no-op sink (``crashed`` flag), modeling a dead process, and the
next open recovers by truncating torn tails.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Iterable

from repro.relational.relation import Relation
from repro.store.faults import StorageCrash, StorageFault
from repro.store.log import RecordLog

KeyPairs = tuple[tuple[str, Any], ...]

META_FILE = "meta.json"
TIER_FILES = {"bronze": "bronze.log", "silver": "silver.log", "gold": "gold.log"}


def key_to_json(key: KeyPairs) -> list[list[Any]]:
    """Canonical JSON shape of a result-cache key's bound pairs."""
    return [[attr, value] for attr, value in key]


def key_from_json(items: Iterable[Iterable[Any]]) -> KeyPairs:
    return tuple((pair[0], pair[1]) for pair in items)


def page_key_to_json(key: tuple) -> list[Any]:
    method, url, params = key
    return [method, url, [[k, v] for k, v in params]]


def page_key_from_json(items: list[Any]) -> tuple:
    method, url, params = items
    return (method, url, tuple((p[0], p[1]) for p in params))


@dataclass(frozen=True)
class SilverEntry:
    """One current silver segment, decoded and ready to warm a cache."""

    relation: str
    host: str
    revision: int
    key: KeyPairs
    value: Relation


class TieredStore:
    """Facade over the three tier logs plus the navmap metadata file."""

    def __init__(
        self,
        root: str,
        fsync: bool = False,
        fault: StorageFault | None = None,
        metrics: Any = None,
    ) -> None:
        self.root = root
        self.fsync = fsync
        self.crashed = False
        self._closed = False
        self._metrics = metrics
        self._lock = threading.RLock()
        os.makedirs(root, exist_ok=True)
        self.bronze = RecordLog(os.path.join(root, TIER_FILES["bronze"]), fsync, fault)
        self.silver = RecordLog(os.path.join(root, TIER_FILES["silver"]), fsync, fault)
        self.gold = RecordLog(os.path.join(root, TIER_FILES["gold"]), fsync, fault)
        self._replay()
        torn = self.bronze.torn_bytes + self.silver.torn_bytes + self.gold.torn_bytes
        if metrics is not None:
            metrics.gauge("store.torn_bytes_recovered").set(torn)

    # -- state replay -----------------------------------------------------------

    def _replay(self) -> None:
        """Derive all in-memory state from the durable records."""
        self._pages: dict[tuple, dict[str, Any]] = {}
        self._intents: list[dict[str, Any]] = []
        self._revisions: dict[str, int] = {}
        self._quarantined: set[str] = set()
        self._silver: dict[tuple[str, KeyPairs], dict[str, Any]] = {}
        self._answers: dict[str, dict[str, Any]] = {}
        # current_answers(), rebuilt only after an answer or a revision
        # moves (None = stale); every MQO read asks for it.
        self._current: tuple[dict[str, Any], ...] | None = None
        self._snapshots: dict[str, dict[str, Any]] = {}
        self._standing: dict[str, bool] = {}
        for record in self.bronze:
            kind = record.get("kind")
            if kind == "page":
                self._pages[page_key_from_json(record["key"])] = record
            elif kind == "intent":
                self._intents.append(record)
            elif kind == "revision":
                self._revisions[record["host"]] = record["revision"]
            elif kind == "quarantine":
                if record["active"]:
                    self._quarantined.add(record["host"])
                else:
                    self._quarantined.discard(record["host"])
        for record in self.silver:
            if record.get("kind") == "result":
                self._silver[(record["relation"], key_from_json(record["key"]))] = record
        for record in self.gold:
            kind = record.get("kind")
            if kind == "answer":
                self._answers[record["query"]] = record
            elif kind == "snapshot":
                self._snapshots[record["query"]] = record
            elif kind == "standing":
                self._standing[record["query"]] = record["active"]

    # -- write path -------------------------------------------------------------

    def _append(self, log: RecordLog, record: dict[str, Any]) -> bool:
        """Append unless dead; a torn write flips the store to dead."""
        if self.crashed or self._closed:
            return False
        try:
            log.append(record)
        except StorageCrash:
            self.crashed = True
            self._inc("store.crashes")
            return False
        return True

    def _inc(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)

    def record_page(self, request: Any, response: Any) -> bool:
        """Bronze: one served page (the raw layer the rest rebuilds from)."""
        from repro.web.browser import request_key

        key = request_key(request)
        record = {
            "kind": "page",
            "host": request.url.host,
            "key": page_key_to_json(key),
            "status": response.status,
            "body": response.body,
            "final_url": str(response.final_url) if response.final_url else None,
            "location": response.location,
        }
        written = self._append(self.bronze, record)
        if written:
            with self._lock:
                self._pages[key] = record
            self._inc("store.bronze_pages")
        return written

    def record_intent(
        self, relation: str, host: str, revision: int, key: KeyPairs
    ) -> bool:
        """Bronze: a fetch is about to run (write-ahead of the result)."""
        record = {
            "kind": "intent",
            "relation": relation,
            "host": host,
            "revision": revision,
            "key": key_to_json(key),
        }
        written = self._append(self.bronze, record)
        if written:
            with self._lock:
                self._intents.append(record)
            self._inc("store.intents")
        return written

    def record_revision(self, host: str, revision: int) -> bool:
        """Bronze: the host's navigation-map revision moved."""
        record = {"kind": "revision", "host": host, "revision": revision}
        written = self._append(self.bronze, record)
        if written:
            with self._lock:
                self._revisions[host] = revision
                self._current = None
        return written

    def record_quarantine(self, host: str, active: bool) -> bool:
        """Bronze: the host entered (or left) quarantine."""
        record = {"kind": "quarantine", "host": host, "active": active}
        written = self._append(self.bronze, record)
        if written:
            with self._lock:
                if active:
                    self._quarantined.add(host)
                else:
                    self._quarantined.discard(host)
        return written

    def persist_result(
        self,
        relation: str,
        host: str,
        revision: int,
        key: KeyPairs,
        value: Relation,
    ) -> bool:
        """Silver: one extracted relation segment, revision-stamped."""
        record = {
            "kind": "result",
            "relation": relation,
            "host": host,
            "revision": revision,
            "key": key_to_json(key),
            "schema": list(value.schema),
            "rows": [list(row) for row in value.rows],
        }
        written = self._append(self.silver, record)
        if written:
            with self._lock:
                self._silver[(relation, key)] = record
            self._inc("store.silver_writes")
        return written

    def persist_answer(
        self, query: str, value: Relation, revisions: dict[str, int]
    ) -> bool:
        """Gold: one materialized UR answer with its revision vector."""
        record = {
            "kind": "answer",
            "query": query,
            "schema": list(value.schema),
            "rows": [list(row) for row in value.rows],
            "revisions": dict(sorted(revisions.items())),
        }
        written = self._append(self.gold, record)
        if written:
            with self._lock:
                self._answers[query] = record
                self._current = None
            self._inc("store.gold_writes")
        return written

    def persist_snapshot(
        self,
        query: str,
        schema: list[str],
        rows: list[tuple],
        revisions: dict[str, int],
        seq: int,
    ) -> bool:
        """Gold: a standing query's last delivered row set."""
        record = {
            "kind": "snapshot",
            "query": query,
            "schema": list(schema),
            "rows": sorted([list(row) for row in rows]),
            "revisions": dict(sorted(revisions.items())),
            "seq": seq,
        }
        written = self._append(self.gold, record)
        if written:
            with self._lock:
                self._snapshots[query] = record
            self._inc("store.snapshot_writes")
        return written

    def record_standing(self, query: str, active: bool = True) -> bool:
        """Gold: (de)register a standing query."""
        record = {"kind": "standing", "query": query, "active": active}
        written = self._append(self.gold, record)
        if written:
            with self._lock:
                self._standing[query] = active
        return written

    # -- read path --------------------------------------------------------------

    def revisions(self) -> dict[str, int]:
        with self._lock:
            return dict(self._revisions)

    def quarantined(self) -> set[str]:
        with self._lock:
            return set(self._quarantined)

    def page_index(self) -> dict[tuple, dict[str, Any]]:
        """Request key → last page record (bronze, last-wins)."""
        with self._lock:
            return dict(self._pages)

    def intents(self, current_only: bool = True) -> list[dict[str, Any]]:
        """Fetch intents, optionally only those at a host's current revision."""
        with self._lock:
            if not current_only:
                return list(self._intents)
            return [
                record
                for record in self._intents
                if record["revision"] == self._revisions.get(record["host"], 0)
            ]

    def silver_current(self) -> dict[tuple[str, KeyPairs], dict[str, Any]]:
        """(relation, key) → latest result record at the current revision."""
        with self._lock:
            return {
                key: record
                for key, record in self._silver.items()
                if record["revision"] == self._revisions.get(record["host"], 0)
            }

    def warm_entries(self) -> list[SilverEntry]:
        """Decoded current silver segments, deterministically ordered."""
        entries = []
        for (relation, key), record in sorted(
            self.silver_current().items(),
            key=lambda item: (item[1]["host"], item[0][0], json.dumps(item[1]["key"])),
        ):
            entries.append(
                SilverEntry(
                    relation=relation,
                    host=record["host"],
                    revision=record["revision"],
                    key=key,
                    value=Relation(
                        record["schema"], [tuple(row) for row in record["rows"]]
                    ),
                )
            )
        return entries

    def current_answers(self) -> tuple[dict[str, Any], ...]:
        """Gold answers whose full revision vector is still current, in
        query-text order (shared and read-only: do not mutate)."""
        with self._lock:
            if self._current is None:
                self._current = tuple(
                    record
                    for _, record in sorted(self._answers.items())
                    if all(
                        self._revisions.get(host, 0) == revision
                        for host, revision in record["revisions"].items()
                    )
                )
            return self._current

    def snapshot(self, query: str) -> dict[str, Any] | None:
        with self._lock:
            return self._snapshots.get(query)

    def standing_queries(self) -> dict[str, dict[str, Any] | None]:
        """Active standing queries → their last persisted snapshot."""
        with self._lock:
            return {
                query: self._snapshots.get(query)
                for query, active in sorted(self._standing.items())
                if active
            }

    # -- navmap metadata --------------------------------------------------------

    def save_navmaps(self, navmaps: dict[str, Any]) -> None:
        """Persist the compiled-from navigation maps (atomic replace).

        Maps are designer artifacts, written whole at attach time, so
        they live outside the WAL: a temp-file rename gives all-or-
        nothing without framing.
        """
        from repro.navigation.serialize import map_to_dict

        meta = {
            "version": 1,
            "navmaps": {
                host: map_to_dict(navmap) for host, navmap in sorted(navmaps.items())
            },
        }
        # One-shot dumps takes the C encoder; json.dump streams through
        # the pure-Python one, most of a maintenance sweep's time.
        text = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        path = os.path.join(self.root, META_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(text)
        os.replace(tmp, path)

    def load_navmaps(self) -> dict[str, Any]:
        """Host → NavigationMap, as persisted at the last attach."""
        from repro.navigation.serialize import map_from_dict

        path = os.path.join(self.root, META_FILE)
        try:
            with open(path, "r", encoding="ascii") as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            return {}
        return {
            host: map_from_dict(payload)
            for host, payload in meta.get("navmaps", {}).items()
        }

    # -- maintenance ------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Inspection payload for the CLI and tests."""
        with self._lock:
            silver_current = sum(
                1
                for record in self._silver.values()
                if record["revision"] == self._revisions.get(record["host"], 0)
            )
            return {
                "root": self.root,
                "fsync": self.fsync,
                "crashed": self.crashed,
                "bronze": {
                    "records": len(self.bronze),
                    "bytes": self.bronze.size_bytes(),
                    "torn_bytes_recovered": self.bronze.torn_bytes,
                    "pages": len(self._pages),
                    "intents": len(self._intents),
                },
                "silver": {
                    "records": len(self.silver),
                    "bytes": self.silver.size_bytes(),
                    "torn_bytes_recovered": self.silver.torn_bytes,
                    "segments": len(self._silver),
                    "current_segments": silver_current,
                },
                "gold": {
                    "records": len(self.gold),
                    "bytes": self.gold.size_bytes(),
                    "torn_bytes_recovered": self.gold.torn_bytes,
                    "answers": len(self._answers),
                    "current_answers": len(self.current_answers()),
                    "snapshots": len(self._snapshots),
                    "standing": sum(1 for active in self._standing.values() if active),
                },
                "revisions": dict(sorted(self._revisions.items())),
                "quarantined": sorted(self._quarantined),
            }

    def compact(self) -> dict[str, int]:
        """Drop superseded records from every tier; returns bytes freed.

        Keeps: the last page per request key, current-revision intents
        (last per (relation, key)), final revision/quarantine marks,
        current-revision silver segments, current gold answers, and
        snapshots/registrations of active standing queries — i.e.
        exactly the records the read path can still serve.
        """
        with self._lock:
            before = (
                self.bronze.size_bytes()
                + self.silver.size_bytes()
                + self.gold.size_bytes()
            )
            keep_bronze: list[dict[str, Any]] = []
            bronze = self.bronze.records  # one rescan of the file
            last_page = {
                page_key_from_json(r["key"]): i
                for i, r in enumerate(bronze)
                if r.get("kind") == "page"
            }
            last_intent = {
                (r["relation"], json.dumps(r["key"])): i
                for i, r in enumerate(bronze)
                if r.get("kind") == "intent"
                and r["revision"] == self._revisions.get(r["host"], 0)
            }
            for i, record in enumerate(bronze):
                kind = record.get("kind")
                if kind == "page":
                    if last_page.get(page_key_from_json(record["key"])) == i:
                        keep_bronze.append(record)
                elif kind == "intent":
                    if last_intent.get((record["relation"], json.dumps(record["key"]))) == i:
                        keep_bronze.append(record)
            for host, revision in sorted(self._revisions.items()):
                keep_bronze.append(
                    {"kind": "revision", "host": host, "revision": revision}
                )
            for host in sorted(self._quarantined):
                keep_bronze.append({"kind": "quarantine", "host": host, "active": True})

            keep_silver = [
                record
                for _, record in sorted(
                    self.silver_current().items(),
                    key=lambda item: (
                        item[1]["host"],
                        item[0][0],
                        json.dumps(item[1]["key"]),
                    ),
                )
            ]

            keep_gold: list[dict[str, Any]] = list(self.current_answers())
            for query, active in sorted(self._standing.items()):
                if not active:
                    continue
                keep_gold.append({"kind": "standing", "query": query, "active": True})
                snapshot = self._snapshots.get(query)
                if snapshot is not None:
                    keep_gold.append(snapshot)

            self.bronze.rewrite(keep_bronze)
            self.silver.rewrite(keep_silver)
            self.gold.rewrite(keep_gold)
            self._replay()
            after = (
                self.bronze.size_bytes()
                + self.silver.size_bytes()
                + self.gold.size_bytes()
            )
            self._inc("store.compactions")
            return {"bytes_before": before, "bytes_after": after, "freed": before - after}

    def close(self) -> None:
        """Close the tier logs and go inert: a closed store still wired
        as a page sink (e.g. an old webbase over a shared world) drops
        writes instead of raising into the fetch path."""
        self._closed = True
        self.bronze.close()
        self.silver.close()
        self.gold.close()
