"""The asyncio HTTP front-end, exercised over real sockets.

Each test runs its own event loop (``asyncio.run``) with the front-end
on an ephemeral port; clients run in worker threads via
``asyncio.to_thread`` so the loop stays free to serve.  Slow-backend
scenarios use a stub suggester gated on a ``threading.Event`` — the
test releases it only once the interesting concurrent state (admission
full, single-flight populated, drain initiated) has been observed.
"""

import asyncio
import contextlib
import http.client
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import XCleanConfig
from repro.core.server import SuggestionService
from repro.core.suggestion import CleaningStats, Suggestion
from repro.index.corpus import build_corpus_index
from repro.net.server import HTTPFrontEnd, ServeConfig
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


@pytest.fixture()
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


def make_service(corpus, **kwargs):
    kwargs.setdefault("config", XCleanConfig(max_errors=1))
    return SuggestionService(corpus, **kwargs)


@contextlib.asynccontextmanager
async def front_end(service, **config):
    config.setdefault("port", 0)
    config.setdefault("drain_grace", 5.0)
    fe = HTTPFrontEnd(service, ServeConfig(**config))
    await fe.start()
    runner = asyncio.ensure_future(fe.run())
    try:
        yield fe
    finally:
        fe.initiate_drain()
        await runner


def get(port: int, target: str):
    """One GET on a fresh connection; returns (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def post(port: int, target: str, payload: bytes,
         content_type: str = "application/json"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            "POST", target, body=payload,
            headers={"Content-Type": content_type},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def raw_roundtrip(port: int, payload: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(payload)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class GatedSuggester:
    """Stub backend that blocks each call until the test releases it."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = 0
        self.calls_lock = threading.Lock()
        self.last_stats = CleaningStats()

    def suggest(self, query, k=10, ctx=None):
        with self.calls_lock:
            self.calls += 1
        assert self.gate.wait(timeout=10), "test never released the gate"
        return [Suggestion(tokens=tuple(query.split()), score=1.0)]


class TestRouting:
    def test_suggest_get_happy_path(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        get, fe.port, "/suggest?q=tree+icdt&k=3"
                    )

        status, headers, body = asyncio.run(main())
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["query"] == "tree icdt"
        assert payload["partial"] is False
        assert payload["suggestions"]
        assert all(
            set(s) == {"text", "score", "result_type"}
            for s in payload["suggestions"]
        )

    def test_suggest_post_json_body(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        post, fe.port, "/suggest",
                        json.dumps({"query": "tree icdt", "k": 2}).encode(),
                    )

        status, _, body = asyncio.run(main())
        assert status == 200
        payload = json.loads(body)
        assert payload["k"] == 2
        assert len(payload["suggestions"]) <= 2

    def test_error_statuses(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    port = fe.port
                    return await asyncio.gather(
                        asyncio.to_thread(get, port, "/nope"),
                        asyncio.to_thread(get, port, "/suggest"),
                        asyncio.to_thread(get, port, "/suggest?q=x&k=0"),
                        asyncio.to_thread(get, port, "/suggest?q=x&k=abc"),
                        asyncio.to_thread(
                            post, port, "/healthz", b"{}"
                        ),
                        asyncio.to_thread(
                            post, port, "/suggest", b"not json"
                        ),
                    )

        results = asyncio.run(main())
        statuses = [status for status, _, _ in results]
        assert statuses == [404, 400, 400, 400, 405, 400]
        for _, _, body in results:
            payload = json.loads(body)
            assert "error" in payload and "message" in payload

    def test_stats_and_metrics_endpoints(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    port = fe.port
                    await asyncio.to_thread(get, port, "/suggest?q=tree")
                    return await asyncio.gather(
                        asyncio.to_thread(get, port, "/stats"),
                        asyncio.to_thread(get, port, "/metrics"),
                        asyncio.to_thread(
                            get, port, "/metrics?format=json"
                        ),
                    )

        stats, prom, metrics_json = asyncio.run(main())
        payload = json.loads(stats[2])
        assert payload["service"]["queries_served"] == 1
        assert payload["inflight"] == 0
        assert payload["front_end"]["requests_total"] >= 1
        assert b"http_requests_total" in prom[2]
        json.loads(metrics_json[2])  # valid JSON snapshot


class TestProtocol:
    def test_keep_alive_reuses_one_connection(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    def client():
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", fe.port, timeout=10
                        )
                        statuses = []
                        for _ in range(3):
                            conn.request("GET", "/suggest?q=tree")
                            response = conn.getresponse()
                            response.read()
                            statuses.append(response.status)
                        conn.close()
                        return statuses

                    statuses = await asyncio.to_thread(client)
                    return statuses, fe.stats.connections_total

        statuses, connections = asyncio.run(main())
        assert statuses == [200, 200, 200]
        assert connections == 1

    def test_connection_close_honored(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        raw_roundtrip, fe.port,
                        b"GET /healthz HTTP/1.1\r\n"
                        b"Connection: close\r\n\r\n",
                    )

        raw = asyncio.run(main())
        # The server answered, then closed (recv saw EOF).
        assert raw.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: close" in raw

    def test_malformed_request_line_is_400(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        raw_roundtrip, fe.port,
                        b"TOTAL GARBAGE\r\n\r\n",
                    )

        raw = asyncio.run(main())
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_413(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(
                    service, max_body_bytes=64
                ) as fe:
                    return await asyncio.to_thread(
                        raw_roundtrip, fe.port,
                        b"POST /suggest HTTP/1.1\r\n"
                        b"Content-Length: 100000\r\n\r\n",
                    )

        raw = asyncio.run(main())
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_oversized_head_is_431(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(
                    service, max_head_bytes=512
                ) as fe:
                    filler = b"X-Filler: " + b"a" * 2048 + b"\r\n"
                    return await asyncio.to_thread(
                        raw_roundtrip, fe.port,
                        b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n",
                    )

        raw = asyncio.run(main())
        assert raw.startswith(b"HTTP/1.1 431 ")


class TestBackpressure:
    def test_saturated_admission_is_503_with_retry_after(self, corpus):
        async def main():
            stub = GatedSuggester()
            with make_service(corpus, max_pending=1) as service:
                service.suggester = stub
                async with front_end(service) as fe:
                    port = fe.port
                    first = asyncio.ensure_future(asyncio.to_thread(
                        get, port, "/suggest?q=first"
                    ))
                    # Wait until the first request holds the only
                    # admission slot (its backend call started).
                    while stub.calls < 1:
                        await asyncio.sleep(0.01)
                    shed = await asyncio.to_thread(
                        get, port, "/suggest?q=second"
                    )
                    stub.gate.set()
                    served = await first
                    return served, shed, fe.stats

        served, shed, stats = asyncio.run(main())
        assert served[0] == 200
        status, headers, body = shed
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        payload = json.loads(body)
        assert payload["error"] == "overloaded"
        assert payload["retry_after"] > 0
        assert stats.shed_total == 1
        assert stats.responses_5xx_other == 0

    def test_deadline_partial_is_served_with_flag(self, corpus):
        async def main():
            service = make_service(
                corpus,
                config=XCleanConfig(
                    max_errors=1, deadline_seconds=1e-9
                ),
            )
            with service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        get, fe.port, "/suggest?q=tree+icdt"
                    )

        status, _, body = asyncio.run(main())
        assert status == 200
        assert json.loads(body)["partial"] is True


class TestSingleFlight:
    N = 8

    def test_concurrent_identical_requests_coalesce(self, corpus):
        # asyncio.to_thread's default pool is cpu-sized and may hold
        # fewer threads than N concurrent clients — use our own.
        clients = ThreadPoolExecutor(max_workers=self.N)

        async def main():
            loop = asyncio.get_running_loop()
            stub = GatedSuggester()
            with make_service(corpus, result_cache_size=0) as service:
                service.suggester = stub
                async with front_end(service) as fe:
                    port = fe.port
                    tasks = [
                        loop.run_in_executor(
                            clients, get, port,
                            "/suggest?q=tree+icdt&k=3",
                        )
                        for _ in range(self.N)
                    ]
                    # Deterministic overlap: wait until one leader is
                    # computing and every other request has coalesced
                    # onto its flight, then release the backend.
                    deadline = loop.time() + 10.0
                    while (
                        fe.singleflight.coalesced < self.N - 1
                        or stub.calls < 1
                    ):
                        if loop.time() > deadline:
                            stub.gate.set()
                            pytest.fail(
                                "requests never coalesced: "
                                f"{fe.singleflight.coalesced} "
                                f"coalesced, {stub.calls} calls"
                            )
                        await asyncio.sleep(0.01)
                    stub.gate.set()
                    results = await asyncio.gather(*tasks)
                    return stub.calls, results, fe

        calls, results, fe = asyncio.run(main())
        assert calls == 1  # one backend execution for N requests
        assert all(status == 200 for status, _, _ in results)
        bodies = {body for _, _, body in results}
        assert len(bodies) == 1  # byte-identical fan-out
        assert fe.stats.coalesced_total == self.N - 1
        assert fe.stats.singleflight_leaders_total == 1
        snapshot = json.loads(
            fe.metrics.snapshot().to_json(indent=None)
        )
        assert (
            snapshot["counters"]["coalesced_queries_total"]
            == self.N - 1
        )

    def test_disabled_single_flight_computes_per_request(self, corpus):
        async def main():
            stub = GatedSuggester()
            stub.gate.set()  # no blocking: count executions only
            with make_service(corpus, result_cache_size=0) as service:
                service.suggester = stub
                async with front_end(
                    service, single_flight=False
                ) as fe:
                    port = fe.port
                    results = await asyncio.gather(*[
                        asyncio.to_thread(
                            get, port, "/suggest?q=tree+icdt&k=3"
                        )
                        for _ in range(self.N)
                    ])
                    return stub.calls, results, fe

        calls, results, fe = asyncio.run(main())
        assert all(status == 200 for status, _, _ in results)
        assert calls == self.N  # every request ran the backend
        assert fe.stats.coalesced_total == 0


class TestDrain:
    def test_drain_completes_inflight_request(self, corpus):
        async def main():
            stub = GatedSuggester()
            with make_service(corpus) as service:
                service.suggester = stub
                async with front_end(service) as fe:
                    inflight = asyncio.ensure_future(asyncio.to_thread(
                        get, fe.port, "/suggest?q=slow"
                    ))
                    while stub.calls < 1:
                        await asyncio.sleep(0.01)
                    fe.initiate_drain()
                    # New connections are refused once draining.
                    with pytest.raises(OSError):
                        await asyncio.to_thread(
                            get, fe.port, "/healthz"
                        )
                    stub.gate.set()
                    status, headers, body = await inflight
                    return status, headers, body, fe

        status, headers, body, fe = asyncio.run(main())
        assert status == 200
        assert json.loads(body)["suggestions"]
        # The connection is not reused across a drain.
        assert headers["Connection"] == "close"
        assert fe.draining

    def test_drain_cancels_idle_keep_alive_connections(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", fe.port, timeout=10
                    )

                    def one_request():
                        conn.request("GET", "/healthz")
                        response = conn.getresponse()
                        response.read()
                        return response.status

                    status = await asyncio.to_thread(one_request)
                    # The connection now idles in keep-alive; a drain
                    # must not wait keep_alive_timeout for it.
                    began = asyncio.get_running_loop().time()
                    fe.initiate_drain()
                    await fe.drain()
                    elapsed = (
                        asyncio.get_running_loop().time() - began
                    )
                    conn.close()
                    return status, elapsed

        status, elapsed = asyncio.run(main())
        assert status == 200
        assert elapsed < 5.0
