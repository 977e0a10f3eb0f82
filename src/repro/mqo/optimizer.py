"""The multi-query optimizer facade: fingerprint → share → subsume.

One :class:`MultiQueryOptimizer` attaches to a webbase when
``WebBaseConfig.mqo`` is on.  It owns the two cross-query mechanisms and
applies them in a fixed decision ladder:

1. **Subsume** (:meth:`subsume`): before executing at all, look for a
   revision-current gold-tier answer that *contains* the query — same
   join core, all needed attributes retained, predicate implied
   (:mod:`repro.mqo.containment`).  A hit is answered by filtering the
   materialized rows: zero fetches, zero plan executions.
2. **Share** (:attr:`registry`): failing that, execute — but every
   maximal object's evaluation runs through the
   :class:`~repro.mqo.registry.SubplanRegistry`, so identical in-flight
   fingerprints across concurrent queries collapse onto one evaluation.

Staleness can never leak through either path: sharing is strictly
in-flight, and subsumption revalidates the stored answer's full revision
vector against the LIVE cache revisions at answer time — one maintenance
bump on any contributing host and the gold answer is skipped.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.mqo.containment import Decomposition, decompose, decomposition_implies
from repro.mqo.registry import SubplanRegistry, answer_revisions
from repro.relational.relation import Relation
from repro.ur.query import QueryParseError, URQuery, parse_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.webbase import WebBase
    from repro.ur.planner import URPlan

#: Bound on each per-text memo (parsed queries, join cores, gold views):
#: past it a memo starts over, so a stream of one-off texts cannot grow it.
_MEMO_LIMIT = 1024
#: ``subsume``'s "join core not computed yet" marker (``None`` is a value).
_UNPLANNED = object()


class _Parsed:
    """What containment needs of one query text, derived once."""

    __slots__ = ("query", "needed", "decomposition")

    def __init__(self, query: URQuery) -> None:
        self.query = query
        self.needed = frozenset(name.lower() for name in query.attributes())
        self.decomposition: Decomposition = decompose(query.condition)


class _Gold:
    """One gold record with its parse, attribute set and rows as a
    relation (built on its first containment hit)."""

    __slots__ = ("record", "parsed", "attrs", "_answer")

    def __init__(self, record: dict[str, Any], parsed: _Parsed | None) -> None:
        self.record = record
        self.parsed = parsed
        self.attrs = frozenset(record["schema"])
        self._answer: Relation | None = None

    def answer(self) -> Relation:
        if self._answer is None:
            self._answer = Relation(
                self.record["schema"], [tuple(row) for row in self.record["rows"]]
            )
        return self._answer


class MultiQueryOptimizer:
    """Cross-query sharing and reuse for one webbase."""

    def __init__(self, webbase: "WebBase") -> None:
        self.webbase = webbase
        self.registry = SubplanRegistry(
            metrics=webbase.metrics, revisions=webbase.cache.revisions
        )
        # Every read tests its text against every current gold answer, so
        # what a text parses, plans and materializes to is derived once:
        # parses and join cores (planning is pure CPU over the catalog and
        # the covers ignore statistics) by text, gold views by record.
        self._parsed: dict[str, _Parsed | None] = {}
        self._cores: dict[str, frozenset[frozenset[str]] | None] = {}
        self._golds: dict[str, _Gold] = {}
        self._memo_lock = threading.Lock()
        # The plan subsume made for its own text, handed to the execution
        # that follows a miss on the same thread (see take_plan).
        self._local = threading.local()
        #: The gold query text behind the most recent :meth:`subsume` hit
        #: on this thread's behalf (display only — EXPLAIN reads it).
        self.last_subsumed_by: str = ""

    # -- containment-based reuse ---------------------------------------------

    def subsume(self, text: str) -> Relation | None:
        """Answer ``text`` from a containing gold answer, or ``None``.

        A non-``None`` return is the complete, current answer — produced
        with zero fetches.  Every ``None`` is silent: the caller falls
        through to normal (shared) execution, and may pick up the plan
        this call made for ``text`` with :meth:`take_plan`.
        """
        self._local.plan = None
        store = getattr(self.webbase, "store", None)
        if store is None:
            return None
        parsed = self._parse(text)
        if parsed is None:
            return None  # normal execution surfaces the real error
        candidates = store.current_answers()
        if not candidates:
            return None
        core: Any = _UNPLANNED
        for record in candidates:
            if record["query"] == text:
                if self._revisions_current(record):
                    return self._finish(record, parsed.query, exact=True)
                continue
            gold = self._gold(record)
            if gold.parsed is None or not parsed.needed <= gold.attrs:
                continue
            if not self._revisions_current(record):
                continue
            if not decomposition_implies(
                parsed.decomposition, gold.parsed.decomposition
            ):
                continue
            if core is _UNPLANNED:
                core = self._join_core(text, hand_off=True)
            if core is None or core != self._join_core(record["query"]):
                continue
            return self._finish(record, parsed.query, exact=False)
        return None

    def take_plan(self, text: str) -> "URPlan | None":
        """The plan the last :meth:`subsume` on this thread made for
        ``text`` (once), so a miss does not plan the same text twice."""
        stashed = getattr(self._local, "plan", None)
        self._local.plan = None
        if stashed is not None and stashed[0] == text:
            return stashed[1]
        return None

    def _parse(self, text: str) -> _Parsed | None:
        """``text`` parsed for containment (``None``: not parsable)."""
        try:
            return self._parsed[text]
        except KeyError:
            pass
        try:
            parsed: _Parsed | None = _Parsed(parse_query(text))
        except QueryParseError:
            parsed = None
        self._remember(self._parsed, text, parsed)
        return parsed

    def _remember(self, memo: dict, key: str, value: Any) -> None:
        with self._memo_lock:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = value

    def _finish(
        self, record: dict[str, Any], query: URQuery, exact: bool
    ) -> Relation | None:
        try:
            answer = self._gold(record).answer()
            if not exact:
                if query.condition is not None:
                    condition = query.condition
                    answer = answer.select(
                        lambda row: condition.evaluate(row)
                    )
                answer = answer.project(query.outputs)
        except Exception:  # noqa: BLE001 - malformed record: fall through
            return None
        self.webbase.metrics.counter("mqo.subsumed").inc()
        self.last_subsumed_by = record["query"]
        return answer

    def _gold(self, record: dict[str, Any]) -> "_Gold":
        """The derived view of one gold record, built once per record (a
        re-persisted answer is a new record)."""
        gold = self._golds.get(record["query"])
        if gold is None or gold.record is not record:
            gold = _Gold(record, self._parse(record["query"]))
            self._remember(self._golds, record["query"], gold)
        return gold

    def _revisions_current(self, record: dict[str, Any]) -> bool:
        """The stored answer's full revision vector matches the LIVE
        cache revisions (stricter than the store's own currency check:
        the cache is bumped first on maintenance)."""
        cache = self.webbase.cache
        revisions = record.get("revisions", {})
        return all(
            cache.revision(host) == revision
            for host, revision in revisions.items()
        )

    def _join_core(
        self, text: str, hand_off: bool = False
    ) -> frozenset[frozenset[str]] | None:
        """The query's feasible maximal objects, as a set of relation
        sets — the "same join core" precondition of containment.  With
        ``hand_off``, a plan made here is kept for :meth:`take_plan`."""
        try:
            return self._cores[text]
        except KeyError:
            pass
        try:
            plan = self.webbase.ur.plan(text)
        except Exception:  # noqa: BLE001 - unplannable: not containable
            core = None
        else:
            core = frozenset(
                frozenset(obj.relations) for obj in plan.feasible_objects
            )
            if hand_off:
                self._local.plan = (text, plan)
        self._remember(self._cores, text, core)
        return core

    # -- gold persistence (the service streaming path) -----------------------

    def record_answer(
        self, text: str, answer: Relation, span: Any, before: dict[str, int]
    ) -> bool:
        """Persist a completed streamed answer, computed under trace
        ``span`` from the live revisions ``before`` it ran, to the gold
        tier with its revision vector (see
        :func:`~repro.mqo.registry.answer_revisions`), so later
        overlapping queries can subsume."""
        store = getattr(self.webbase, "store", None)
        if store is None:
            return False
        return store.persist_answer(text, answer, answer_revisions(span, before))
