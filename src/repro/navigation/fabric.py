"""The async navigation fabric: thousands of in-flight pages, one loop.

The thread-pool execution engine (PR 1) caps concurrent page navigations
at the worker-bundle count — each in-flight fetch owns a thread, a
browser, and a simulated connection lane.  The fabric lifts that ceiling:
an :class:`AsyncNavigationExecutor` runs compiled navigation programs as
coroutines on a single virtual-time event loop
(:class:`~repro.core.simclock.SimLoop`), so a page fetch *awaits* its
simulated latency instead of charging it to a per-worker clock, and the
latencies of every concurrent binding overlap.  That is what makes "keep
thousands of cheap speculative accesses alive so irrelevant ones can be
revoked late" affordable.

Contract with the threaded path (tested property-style in
``tests/test_async_fabric.py``): **byte-identical rows**.  The
:class:`~repro.flogic.engine.AsyncEngine` explores alternatives in
exactly the sync interpreter's order, the same
:class:`~repro.web.browser.PrefixPageCache` provides query-scoped page
reuse, and the same retry/timeout/cancellation semantics are applied by
:meth:`~repro.core.execution.ExecutionContext.run_fetch` — only the
*concurrency mechanism* differs.

Per-binding state (browser, request memo, page budget) lives in a
:class:`BindingRun`, carried by a :data:`contextvars.ContextVar` so that
interleaved solves on one loop never see each other's counters.  Live
navigations are gated by a per-host connection semaphore
(:data:`CONNECTIONS_PER_HOST`) — the fabric multiplexes *waiting*, it
does not pretend a host accepts unbounded parallel connections.
Speculative prefetch of enumerated form submissions runs as loop tasks
under the same :class:`~repro.navigation.prefetch.SpeculationBudget`
wasted-pages allowance as the threaded prefetcher.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import Any, Callable, Iterable

from repro.flogic.engine import AsyncEngine
from repro.flogic.formulas import Pred, Program
from repro.flogic.terms import Var, resolve, unify
from repro.navigation.executor import (
    ExecutorError,
    NavigationExecutor,
    PageBudgetExceeded,
)
from repro.singleflight import Flight
from repro.web.browser import (
    AsyncBrowser,
    NavigationError,
    TransientNetworkError,
    request_key,
)
from repro.web.http import Request, Url, parse_url
from repro.web.page import WebPage
from repro.web.server import WebServer

#: How many live navigations the fabric keeps in flight per host.  The
#: event loop can *hold* thousands of pending bindings, but a real site
#: serves a bounded number of connections — modelling that keeps the
#: fabric's simulated-elapsed wins honest.
CONNECTIONS_PER_HOST = 16

#: The coroutine executing a solve reads its run state from here; asyncio
#: tasks each get their own context, so interleaved bindings are isolated.
_RUN: contextvars.ContextVar["BindingRun"] = contextvars.ContextVar("fabric_run")


class BindingRun:
    """One binding's private navigation state for one fetch attempt.

    The sync engine isolates concurrent fetches by giving each worker
    thread its own :class:`~repro.core.execution.ExecutorBundle`; on the
    fabric every binding shares one executor, so the mutable parts — the
    browser (latency accounting), the per-fetch request memo, the live
    page counter, the cancellation checkpoint — move into this object,
    one per in-flight attempt.
    """

    def __init__(
        self,
        server: WebServer,
        max_pages: int,
        cancel_check: Callable[[], None] | None = None,
    ) -> None:
        self.browser = AsyncBrowser(server)
        self.max_pages = max_pages
        self.cancel_check = cancel_check
        self.memo: dict[tuple, WebPage] = {}
        self.pages = 0

    @property
    def network_seconds(self) -> float:
        """Simulated seconds this run awaited on the network."""
        return self.browser.network_seconds

    def check_page_budget(self) -> None:
        """The per-fetch live-page rail, mirroring the sync executor's
        (memo and prefix-cache hits never count against it)."""
        if self.pages >= self.max_pages:
            raise PageBudgetExceeded(
                "fetch exceeded its budget of %d pages" % self.max_pages
            )


class AsyncNavigationExecutor(NavigationExecutor):
    """Runs compiled navigation programs as coroutines.

    A drop-in async sibling of :class:`NavigationExecutor`: same compiled
    sites, same builtin action predicates, same row assembly — but
    :meth:`afetch` is a coroutine whose page navigations await simulated
    latency on the fabric loop.  One instance serves arbitrarily many
    concurrent bindings (state lives in per-attempt :class:`BindingRun`
    objects), so the execution context keeps exactly one per query.
    """

    def __init__(
        self,
        server: WebServer,
        max_pages_per_fetch: int = 500,
        connections_per_host: int = CONNECTIONS_PER_HOST,
        metrics: Any = None,
        admit: Callable[[str], bool] | None = None,
        budget: Any = None,
    ) -> None:
        super().__init__(server, max_pages_per_fetch=max_pages_per_fetch)
        self.server = server
        self.metrics = metrics
        self.connections_per_host = max(1, int(connections_per_host))
        # Speculation controls, mirroring the threaded prefetcher's: the
        # admission gate (breaker state, context liveness) and the
        # wasted-pages budget.
        self._admit = admit
        self.budget = budget
        self._connections: dict[str, asyncio.Semaphore] = {}
        self._spec_tasks: list[asyncio.Task] = []
        # Replace the sync engine built by the base constructor with the
        # coroutine interpreter; sites are added afterwards, so their
        # programs land in the async engine.
        self.engine = AsyncEngine(Program())
        self._register_async_builtins()

    # -- per-binding state ---------------------------------------------------

    def new_run(self, cancel_check: Callable[[], None] | None = None) -> BindingRun:
        """A fresh per-attempt state bundle (browser, memo, page budget)."""
        return BindingRun(
            self.server, self.max_pages_per_fetch, cancel_check=cancel_check
        )

    def _connection(self, host: str) -> asyncio.Semaphore:
        sem = self._connections.get(host)
        if sem is None:
            sem = self._connections[host] = asyncio.Semaphore(
                self.connections_per_host
            )
        return sem

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -- fetching ------------------------------------------------------------

    async def afetch(
        self,
        name: str,
        given: dict[str, Any],
        goal: str | None = None,
        run: BindingRun | None = None,
    ) -> list[dict[str, str | None]]:
        """Coroutine twin of :meth:`NavigationExecutor.fetch`: all tuples
        of VPS relation ``name`` consistent with ``given``, in the same
        order the sync executor would produce them."""
        compiled_site, rel = self.relations.get(name, (None, None))
        if rel is None:
            raise ExecutorError("unknown relation %r" % name)
        token = _RUN.set(run if run is not None else self.new_run())
        try:
            args: list[Any] = []
            for attr in rel.vector:
                if attr in given and given[attr] is not None:
                    args.append(str(given[attr]))
                else:
                    args.append(Var("Q_" + attr))
            goal_pred = Pred(goal or rel.name, tuple(args))
            rows: list[dict[str, str | None]] = []
            seen: set[tuple] = set()
            async for subst, _state in self.engine.asolve(goal_pred):
                row: dict[str, str | None] = {}
                for attr, arg in zip(rel.vector, args):
                    if attr not in rel.schema:
                        continue
                    value = resolve(arg, subst)
                    row[attr] = None if isinstance(value, Var) else value
                key = tuple(row.get(a) for a in rel.schema)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
            return rows
        finally:
            _RUN.reset(token)

    async def _afetch_page(self, request: Request) -> WebPage | None:
        run = _RUN.get()
        key = request_key(request)
        if key in run.memo:
            return run.memo[key]
        if run.cancel_check is not None:
            run.cancel_check()
        gate = self._connection(request.url.host)
        try:
            if self.page_cache is not None:
                page, live = await run.browser.request_cached(
                    request,
                    self.page_cache,
                    on_live=run.check_page_budget,
                    poll=run.cancel_check,
                    gate=gate,
                )
            else:
                run.check_page_budget()
                async with gate:
                    page = await run.browser.request(request)
                live = True
        except TransientNetworkError:
            # Retryable: the execution engine's retry policy decides.
            raise
        except NavigationError:
            return None
        if live:
            run.pages += 1
        run.memo[key] = page
        return page

    # -- builtins ------------------------------------------------------------

    def _register_async_builtins(self) -> None:
        self.engine.register_builtin("nav_entry", 2, self._abi_entry)
        self.engine.register_builtin("nav_get", 2, self._abi_get)
        self.engine.register_builtin("nav_follow", 3, self._abi_follow)
        self.engine.register_builtin("nav_submit", 4, self._abi_submit)
        # Extraction is pure computation; the sync builtin serves as-is.
        self.engine.register_builtin("nav_extract", 3, self._bi_extract)

    async def _abi_entry(self, args, subst, state):
        host = resolve(args[0], subst)
        if isinstance(host, Var):
            raise ExecutorError("nav_entry requires a bound host")
        page = await self._afetch_page(Request("GET", Url(str(host), "/")))
        if page is None:
            return
        bound = unify(args[1], page, subst)
        if bound is not None:
            yield bound, state

    async def _abi_get(self, args, subst, state):
        target = resolve(args[0], subst)
        if isinstance(target, Var):
            return  # a detail fetch without its key cannot run
        try:
            url = parse_url(str(target))
        except ValueError:
            return
        page = await self._afetch_page(Request("GET", url))
        if page is None:
            return
        bound = unify(args[1], page, subst)
        if bound is not None:
            yield bound, state

    async def _abi_follow(self, args, subst, state):
        page = resolve(args[0], subst)
        name = resolve(args[1], subst)
        if isinstance(page, Var) or isinstance(name, Var):
            raise ExecutorError("nav_follow requires a bound page and link name")
        if not isinstance(page, WebPage):
            return
        try:
            link = page.link_named(str(name))
        except KeyError:
            return
        target = await self._afetch_page(Request("GET", link.address))
        if target is None:
            return
        bound = unify(args[2], target, subst)
        if bound is not None:
            yield bound, state

    async def _abi_submit(self, args, subst, state):
        page = resolve(args[0], subst)
        ident = resolve(args[1], subst)
        pairs = resolve(args[2], subst)
        if isinstance(page, Var) or isinstance(ident, Var):
            raise ExecutorError("nav_submit requires a bound page and form")
        if not isinstance(page, WebPage):
            return
        live_form = self._find_form(page, str(ident))
        if live_form is None:
            return
        assignments = list(self._assignments(live_form, pairs, subst))
        if self.page_cache is not None and len(assignments) > 1:
            # The enumeration below will demand one submission per domain
            # value; issue them as concurrent loop tasks (budget allowing)
            # so they overlap instead of serializing.
            self._speculate(live_form, [values for values, _ in assignments])
        for values, bound in assignments:
            try:
                params = live_form.fill(values)
            except ValueError:
                continue
            request = self._submit_request(live_form, params)
            target = await self._afetch_page(request)
            if target is None:
                continue
            final = unify(args[3], target, bound)
            if final is not None:
                yield final, state

    # -- speculation -----------------------------------------------------------

    def _speculate(self, form, all_values: list[dict[str, str]]) -> None:
        """Spawn loop tasks prefetching enumerated submissions into the
        page cache, under the wasted-pages budget and the admission gate
        (an open breaker, a cancelled context).  Overrides the threaded
        executor's prefetcher hand-off."""
        run = _RUN.get()
        issued = 0
        for values in all_values:
            try:
                params = form.fill(values)
            except ValueError:
                continue
            request = self._submit_request(form, params)
            key = request_key(request)
            if key in run.memo:
                continue
            host = request.url.host
            if self._admit is not None and not self._admit(host):
                self._count("nav.prefetch_skipped")
                continue
            if self.budget is not None and not self.budget.try_issue(host):
                self._count("nav.prefetch_skipped")
                continue
            claim = self.page_cache.try_lead(host, key)
            if claim is None:
                if self.budget is not None:
                    self.budget.release(host)
                continue  # cached, or another binding is already on it
            flight, revision = claim
            task = asyncio.get_running_loop().create_task(
                self._spec_fetch(request, host, flight, revision)
            )
            self._spec_tasks.append(task)
            issued += 1
        if issued:
            self._count("nav.prefetch_issued", issued)

    async def _spec_fetch(
        self, request: Request, host: str, flight: Flight, revision: int
    ) -> None:
        browser = AsyncBrowser(self.server)
        with self.page_cache.flights.lead(flight):
            try:
                async with self._connection(host):
                    page = await browser.request(request)
            except NavigationError as exc:
                # Never share a failure: the demand path retries it under
                # the engine's retry policy.
                self.page_cache.flights.fail(flight, exc)
                if self.budget is not None:
                    self.budget.wasted(host)
                return
            self._count("nav.prefetch_pages")
            self.page_cache.fulfill(flight, page, revision, speculative=True)

    async def drain_speculation(self) -> None:
        """Await every speculative task spawned so far (deterministic
        accounting at the end of a batch)."""
        tasks, self._spec_tasks = self._spec_tasks, []
        for task in tasks:
            try:
                await task
            except Exception:  # noqa: BLE001 - speculative; demand path retries
                pass
