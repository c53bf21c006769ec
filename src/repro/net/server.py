"""The asyncio HTTP front-end over :class:`SuggestionService`.

One event loop accepts connections and parses requests; the actual
query computation runs on a bounded :class:`ThreadPoolExecutor` via
:meth:`SuggestionService.suggest_detailed` (whose serving core is
thread-safe — bookkeeping under a lock, in-process computation
serialized).  Backpressure is the *service's* machinery, reused:

* admission control — the handler calls ``service.admit(1)`` on the
  event loop **before** dispatching to the executor, so an overloaded
  service sheds at arrival (HTTP 503 + ``Retry-After`` from the
  service's backpressure hint) instead of queueing executor work;
* deadlines — ``XCleanConfig.deadline_seconds`` truncated answers are
  served with ``"partial": true`` in the response body;
* the circuit breaker / pool path raises the same typed
  :class:`~repro.exceptions.Overloaded`, mapped identically.

Concurrent identical ``(normalized tokens, k)`` requests are coalesced
through a :class:`~repro.net.singleflight.SingleFlight`: one backend
execution, byte-identical response bytes fanned out to every waiter,
counted in ``coalesced_queries_total``.

Graceful drain: SIGTERM (and SIGINT) stops accepting connections,
cancels idle keep-alive connections, lets in-flight requests finish
(bounded by ``drain_grace``), then returns from :meth:`HTTPFrontEnd.
run`.  ``GET /healthz`` reports ``draining`` so load balancers stop
routing before the listener disappears.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from time import perf_counter

from repro.core.server import SuggestionService
from repro.exceptions import Overloaded, QueryError
from repro.net.http import (
    REQUEST_ID_HEADER,
    BadRequest,
    HTTPRequest,
    build_response,
    error_body,
    json_body,
    parse_request_head,
    retry_after_header,
    valid_request_id,
)
from repro.net.singleflight import SingleFlight
from repro.obs.logging import NULL_REQUEST_LOG, new_request_id
from repro.obs.ops import export_process_gauges, status_payload
from repro.obs.slo import SLOTracker

logger = logging.getLogger(__name__)

#: Upper bound on ``k`` accepted over the wire; a typo like
#: ``k=100000`` must not turn one request into a giant answer.
MAX_K = 100

#: Outcomes the SLO tracker accepts (``repro/obs/slo.py``); 4xx client
#: errors are logged but burn no error budget.
_SLO_OUTCOMES = frozenset(("served", "partial", "shed", "error"))


def _default_outcome(status: int) -> str:
    """SLO outcome from an HTTP status when the answer set none."""
    if status == 503:
        return "shed"
    if status >= 500:
        return "error"
    if status >= 400:
        return "client_error"
    return "served"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the HTTP front-end."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests, benchmarks).
    port: int = 8080
    #: Executor threads running service calls.  In-process computation
    #: is GIL-bound and serialized by the service anyway; threads buy
    #: overlap of parsing/serialization with computation, not parallel
    #: scoring — keep this small.
    threads: int = 4
    #: Default ``k`` when a request does not pass one.
    default_k: int = 10
    #: Reject request bodies larger than this (HTTP 413).
    max_body_bytes: int = 64 * 1024
    #: Reject request heads (line + headers) larger than this (431).
    max_head_bytes: int = 16 * 1024
    #: Seconds an idle keep-alive connection is retained.
    keep_alive_timeout: float = 30.0
    #: Seconds a drain waits for in-flight requests before cancelling.
    drain_grace: float = 10.0
    #: Coalesce concurrent identical suggest requests.
    single_flight: bool = True


@dataclass
class FrontEndStats:
    """Front-end lifetime counters (service counters live elsewhere)."""

    connections_total: int = 0
    requests_total: int = 0
    responses_5xx_other: int = 0
    shed_total: int = 0
    coalesced_total: int = 0
    singleflight_leaders_total: int = 0


class _Connection:
    """Book-keeping for one client connection."""

    __slots__ = ("task", "writer", "busy")

    def __init__(self, task: asyncio.Task, writer: asyncio.StreamWriter):
        self.task = task
        self.writer = writer
        self.busy = False


class _Answer:
    """One computed response: status + body + optional retry hint.

    Built exactly once per single-flight leader; followers reuse the
    same instance, so ``body`` bytes are shared, not re-encoded.
    ``outcome`` is the SLO verdict when the default status mapping is
    not enough (a 200 that is a deadline-truncated ``partial``).
    """

    __slots__ = ("status", "body", "retry_after", "outcome")

    def __init__(self, status: int, body: bytes,
                 retry_after: float | None = None,
                 outcome: str | None = None):
        self.status = status
        self.body = body
        self.retry_after = retry_after
        self.outcome = outcome


class HTTPFrontEnd:
    """Asyncio HTTP/1.1 listener over one :class:`SuggestionService`."""

    def __init__(
        self,
        service: SuggestionService,
        config: ServeConfig | None = None,
        *,
        request_log=None,
        slo=None,
    ):
        self.service = service
        self.config = config or ServeConfig()
        self.metrics = service.metrics_registry
        self.stats = FrontEndStats()
        self.singleflight = SingleFlight()
        #: JSONL access log (``repro/obs/logging.py``); disabled
        #: (null-object) unless the caller wires one.
        self.request_log = request_log or NULL_REQUEST_LOG
        #: Multi-window SLO rings (``repro/obs/slo.py``); on by
        #: default — the record path is a few integer bumps.
        self.slo = SLOTracker() if slo is None else slo
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.threads,
            thread_name_prefix="xclean-http",
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._drain_requested: asyncio.Event | None = None
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and install SIGTERM/SIGINT drain handlers."""
        self._drain_requested = asyncio.Event()
        limit = max(
            self.config.max_head_bytes, self.config.max_body_bytes
        ) + 1024
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=limit,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.initiate_drain)
            except (NotImplementedError, RuntimeError):
                # Non-main thread or non-Unix loop: drains are then
                # driven programmatically (tests do exactly that).
                break
        logger.info("listening on http://%s:%d", self.host, self.port)

    def initiate_drain(self) -> None:
        """Begin a graceful shutdown; safe to call more than once.

        Stops accepting connections, wakes :meth:`run`, and cancels
        connections that are idle between requests.  In-flight
        requests keep running — :meth:`drain` bounds how long.
        """
        if self._draining:
            return
        self._draining = True
        logger.info("drain initiated: refusing new connections")
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            if not connection.busy:
                connection.task.cancel()
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def drain(self) -> None:
        """Complete a drain: wait for in-flight requests, then stop.

        Waits up to ``drain_grace`` seconds for connection tasks to
        finish on their own, cancels stragglers, and shuts the
        executor down.  Idempotent; callable only after
        :meth:`initiate_drain` (call it otherwise and it drains an
        already-idle server immediately).
        """
        self.initiate_drain()
        tasks = {c.task for c in self._connections}
        if tasks:
            done, pending = await asyncio.wait(
                tasks, timeout=self.config.drain_grace
            )
            if pending:
                logger.warning(
                    "drain grace (%.1fs) expired with %d connections "
                    "still busy; cancelling",
                    self.config.drain_grace, len(pending),
                )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.request_log.close()
        logger.info("drain complete")

    async def run(self) -> None:
        """Serve until a drain is requested, then drain and return."""
        if self._server is None:
            await self.start()
        assert self._drain_requested is not None
        await self._drain_requested.wait()
        await self.drain()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        connection = _Connection(task, writer)
        self._connections.add(connection)
        self.stats.connections_total += 1
        try:
            await self._serve_connection(connection, reader, writer)
        except asyncio.CancelledError:
            # Drain cancelled this connection between requests; eat
            # the cancellation so the close below still runs.
            pass
        except ConnectionError:
            pass
        finally:
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self,
        connection: _Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        config = self.config
        while not self._draining:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"),
                    timeout=config.keep_alive_timeout,
                )
            except asyncio.TimeoutError:
                return  # idle keep-alive expired
            except asyncio.IncompleteReadError as error:
                if error.partial:
                    # Half a request head then EOF: tell the client
                    # before closing (best effort).
                    writer.write(build_response(
                        400,
                        error_body("bad_request",
                                   "truncated request head"),
                        keep_alive=False,
                    ))
                    await writer.drain()
                return
            except asyncio.LimitOverrunError:
                writer.write(build_response(
                    431,
                    error_body("headers_too_large",
                               "request head exceeds limit"),
                    keep_alive=False,
                ))
                await writer.drain()
                return
            connection.busy = True
            try:
                keep_alive = await self._serve_request(
                    reader, writer, head
                )
            finally:
                connection.busy = False
            if not keep_alive or self._draining:
                return

    async def _serve_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        head: bytes,
    ) -> bool:
        """Parse, route, respond.  Returns whether to keep the conn."""
        self.stats.requests_total += 1
        began = perf_counter()
        keep_alive = False
        # The correlation id is minted at arrival — before parsing can
        # fail — so even a 400's log line carries one; a well-formed
        # inbound X-Request-Id replaces it below.
        request_id = new_request_id()
        method = ""
        path = ""
        log_fields: dict = {}
        extra: tuple[tuple[str, str], ...] = ()
        try:
            request = parse_request_head(head)
            method, path = request.method, request.path
            inbound = request.headers.get(REQUEST_ID_HEADER)
            if valid_request_id(inbound):
                request_id = inbound
            if len(head) > self.config.max_head_bytes:
                raise BadRequest(
                    "request head exceeds limit", status=431
                )
            length = request.content_length(
                self.config.max_body_bytes
            )
            if length:
                request.body = await reader.readexactly(length)
            keep_alive = request.keep_alive
            answer = await self._route(request, request_id, log_fields)
        except BadRequest as error:
            answer = _Answer(
                error.status,
                error_body("bad_request", str(error)),
            )
            # Framing is unreliable after a parse error (an unread
            # body, a bogus request line): never reuse the connection.
            keep_alive = False
        except asyncio.IncompleteReadError:
            return False  # client vanished mid-body; nothing to say
        except Overloaded as error:
            answer = self._overloaded_answer(error)
        except asyncio.CancelledError:
            raise
        except Exception:
            logger.exception("unhandled error serving request")
            answer = _Answer(
                500, error_body("internal", "internal server error")
            )
            keep_alive = False
        if answer.status == 503:
            self.stats.shed_total += 1
            extra += (retry_after_header(answer.retry_after),)
        elif answer.status >= 500:
            self.stats.responses_5xx_other += 1
        extra += (("X-Request-Id", request_id),)
        if self._draining:
            keep_alive = False
        writer.write(build_response(
            answer.status,
            answer.body,
            keep_alive=keep_alive,
            extra_headers=extra,
        ))
        await writer.drain()
        elapsed = perf_counter() - began
        outcome = answer.outcome or _default_outcome(answer.status)
        if path == "/suggest" and outcome in _SLO_OUTCOMES:
            self.slo.record(outcome, elapsed)
        if self.request_log.enabled:
            self.request_log.log(dict(
                {
                    "id": request_id,
                    "method": method,
                    "path": path,
                    "status": answer.status,
                    "outcome": outcome,
                    "latency_s": round(elapsed, 6),
                },
                **log_fields,
            ))
        if self.metrics.enabled:
            self.metrics.inc(
                "http_requests_total", status=str(answer.status)
            )
            self.metrics.observe("http_request_seconds", elapsed)
        return keep_alive

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, request: HTTPRequest, request_id: str,
                     log_fields: dict) -> _Answer:
        path = request.path
        if path == "/suggest":
            if request.method not in ("GET", "POST"):
                raise BadRequest(
                    f"{request.method} not allowed on /suggest",
                    status=405,
                )
            return await self._suggest(request, request_id, log_fields)
        if path == "/healthz":
            if request.method != "GET":
                raise BadRequest("use GET /healthz", status=405)
            status = "draining" if self._draining else "ok"
            return _Answer(
                200 if status == "ok" else 503,
                json_body({"status": status}),
            )
        if path == "/readyz":
            if request.method != "GET":
                raise BadRequest("use GET /readyz", status=405)
            health = self.service.health(draining=self._draining)
            return _Answer(
                health.http_status,
                json_body({
                    "status": health.state,
                    "reasons": health.reasons,
                }),
            )
        if path == "/statusz":
            if request.method != "GET":
                raise BadRequest("use GET /statusz", status=405)
            return _Answer(200, json_body(status_payload(
                self.service,
                slo=self.slo,
                front_end=self.stats_payload(),
                draining=self._draining,
            )))
        if path == "/metrics":
            if request.method != "GET":
                raise BadRequest("use GET /metrics", status=405)
            return self._metrics_answer(request)
        if path == "/stats":
            if request.method != "GET":
                raise BadRequest("use GET /stats", status=405)
            return _Answer(200, json_body(self.stats_payload()))
        return _Answer(
            404, error_body("not_found", f"no route for {path!r}")
        )

    def _metrics_answer(self, request: HTTPRequest) -> _Answer:
        # Refresh the point-in-time gauges (process runtime, SLO
        # windows) so every scrape sees current values.
        if self.metrics.enabled:
            export_process_gauges(self.metrics)
            self.slo.export_gauges(self.metrics)
        snapshot = self.metrics.snapshot()
        if request.params.get("format") == "json":
            return _Answer(
                200, snapshot.to_json(indent=None).encode("utf-8")
            )
        body = snapshot.to_prometheus().encode("utf-8")
        answer = _Answer(200, body)
        return answer

    def stats_payload(self) -> dict:
        """Everything ``GET /stats`` reports, as one JSON-able dict."""
        status = self.service.status()
        return {
            "service": status["stats"],
            "inflight": status["inflight"],
            "front_end": dataclasses.asdict(self.stats),
            "draining": self._draining,
        }

    # ------------------------------------------------------------------
    # /suggest
    # ------------------------------------------------------------------

    def _parse_suggest(self, request: HTTPRequest) -> tuple[str, int]:
        if request.method == "GET":
            query = request.params.get("q")
            raw_k = request.params.get("k")
        else:
            payload = request.json()
            query = payload.get("query", payload.get("q"))
            raw_k = payload.get("k")
        if not query or not isinstance(query, str):
            raise BadRequest(
                "missing query: pass ?q= (GET) or a JSON body with "
                "a 'query' field (POST)"
            )
        if raw_k is None:
            k = self.config.default_k
        else:
            try:
                k = int(raw_k)
            except (TypeError, ValueError):
                raise BadRequest(f"invalid k {raw_k!r}") from None
        if not 1 <= k <= MAX_K:
            raise BadRequest(f"k must be in [1, {MAX_K}], got {k}")
        return query, k

    async def _suggest(self, request: HTTPRequest, request_id: str,
                       log_fields: dict) -> _Answer:
        query, k = self._parse_suggest(request)
        log_fields["query"] = query
        log_fields["k"] = k
        service = self.service
        compute = partial(self._compute_suggest, query, k, request_id)
        if not self.config.single_flight:
            return await compute()
        # Normalized key: trivially rewritten duplicates ("Tree  ICDT"
        # vs "tree icdt") coalesce onto one flight, same as they share
        # one result-cache slot.
        key = (tuple(service.corpus.tokenizer.tokenize(query)), k)
        answer, coalesced = await self.singleflight.run(key, compute)
        # A follower shares the leader's computation, so its span tree
        # (and flight entry) carries the *leader's* correlation id;
        # the access-log flag is how the two ids are reconciled.
        log_fields["coalesced"] = coalesced
        if coalesced:
            self.stats.coalesced_total += 1
            if self.metrics.enabled:
                self.metrics.inc("coalesced_queries_total")
        else:
            self.stats.singleflight_leaders_total += 1
            if self.metrics.enabled:
                self.metrics.inc("singleflight_leaders_total")
        return answer

    async def _compute_suggest(
        self, query: str, k: int, request_id: str
    ) -> _Answer:
        """One backend execution: admit → executor → JSON bytes.

        Admission happens here, on the event loop, *inside* the
        single-flight leader — so N coalesced arrivals consume one
        admission slot, and a shed request never occupies an executor
        thread.  Overloaded becomes the shared 503 answer (every
        coalesced waiter backs off identically) rather than an
        exception, so it is fanned out, not re-raised N times.
        """
        service = self.service
        try:
            service.admit(1)
        except Overloaded as error:
            return self._overloaded_answer(error)
        loop = asyncio.get_running_loop()
        try:
            suggestions, stats = await loop.run_in_executor(
                self._executor,
                partial(
                    service.suggest_detailed,
                    query, k, pre_admitted=True, trace_id=request_id,
                ),
            )
        except QueryError as error:
            return _Answer(
                400, error_body("bad_query", str(error))
            )
        except Overloaded as error:
            return self._overloaded_answer(error)
        finally:
            service.release(1)
        payload = {
            "query": query,
            "k": k,
            "suggestions": [
                {
                    "text": s.text,
                    "score": s.score,
                    "result_type": s.result_type,
                }
                for s in suggestions
            ],
            "partial": bool(stats.partial),
            "cache_hit": stats.result_cache_hits > 0,
        }
        outcome = "partial" if stats.partial else "served"
        return _Answer(200, json_body(payload), outcome=outcome)

    def _overloaded_answer(self, error: Overloaded) -> _Answer:
        retry_after = error.retry_after
        if retry_after is None:
            retry_after = self.service.retry_after_hint()
        return _Answer(
            503,
            error_body(
                "overloaded", str(error), retry_after=retry_after
            ),
            retry_after=retry_after,
        )
