"""The ops plane over real sockets: /readyz, /statusz, correlation ids.

Same harness as ``test_front_end``: each test runs its own event loop
with the front-end on an ephemeral port and drives it from worker
threads.  Health-state transitions are induced by poking the exact
internal flags the degrade ladder sets (breaker state, quarantine,
pool-suspect) rather than staging real worker crashes — those paths
have their own tests under ``tests/reliability``.
"""

import asyncio
import contextlib
import http.client
import json
import os
import socket

import pytest

from repro.core.config import XCleanConfig
from repro.core.server import SuggestionService
from repro.core.shards import ShardedSuggestionService
from repro.index.corpus import build_corpus_index
from repro.index.delta import node_to_json
from repro.index.sharding import (
    MANIFEST_NAME,
    build_sharded_snapshot,
    load_manifest,
)
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.index.wal import WalRecord
from repro.net.server import HTTPFrontEnd, ServeConfig
from repro.obs import MetricsRegistry
from repro.obs.logging import RequestLog, read_jsonl
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument
from repro.xmltree.node import XMLNode


@pytest.fixture()
def corpus():
    return build_corpus_index(XMLDocument(paper_example_tree()))


def make_service(corpus, **kwargs):
    kwargs.setdefault("config", XCleanConfig(max_errors=1))
    return SuggestionService(corpus, **kwargs)


@contextlib.asynccontextmanager
async def front_end(service, *, request_log=None, slo=None, **config):
    config.setdefault("port", 0)
    config.setdefault("drain_grace", 5.0)
    fe = HTTPFrontEnd(
        service, ServeConfig(**config),
        request_log=request_log, slo=slo,
    )
    await fe.start()
    runner = asyncio.ensure_future(fe.run())
    try:
        yield fe
    finally:
        fe.initiate_drain()
        await runner


def get(port: int, target: str, headers: dict | None = None):
    """One GET on a fresh connection; returns (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", target, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def post(port: int, target: str, payload: bytes = b"{}"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            "POST", target, body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def raw_roundtrip(port: int, payload: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(payload)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def readyz(port: int):
    status, _, body = get(port, "/readyz")
    return status, json.loads(body)


def statusz(port: int):
    status, _, body = get(port, "/statusz")
    assert status == 200
    return json.loads(body)


def open_breaker(breaker):
    for _ in range(16):
        breaker.record_failure()
    assert breaker.state == "open"


# ----------------------------------------------------------------------
# Live-update fixtures (snapshot-backed single + sharded services)
# ----------------------------------------------------------------------


def el(label, *children, text=""):
    node = XMLNode(label, text=text)
    for child in children:
        node.add_child(child)
    return node


def book(title, author):
    return el(
        "book", el("title", text=title), el("author", text=author)
    )


def base_document():
    root = el(
        "bib",
        book("database systems", "codd"),
        book("xml keyword search", "lu"),
        book("valid spelling suggestion", "chen"),
    )
    return XMLDocument(root, name="ops-test")


NEW_BOOK = WalRecord(
    op="add", dewey=(1,),
    subtree=node_to_json(book("zanzibar consistency", "pat")),
)


@pytest.fixture
def live_service(tmp_path):
    document = base_document()
    path = str(tmp_path / "ops.xcs3")
    build_snapshot(build_corpus_index(document), path)
    with SuggestionService(
        load_snapshot(path), config=XCleanConfig(max_errors=2)
    ) as service:
        service.enable_live_updates(document)
        yield service


# ----------------------------------------------------------------------
# /readyz — single service
# ----------------------------------------------------------------------


class TestReadyzSingle:
    def test_healthy_service_is_ready(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(readyz, fe.port)

        status, body = asyncio.run(main())
        assert status == 200
        assert body == {"status": "ready", "reasons": []}

    def test_breaker_open_degrades(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    open_breaker(service.breaker)
                    return await asyncio.to_thread(readyz, fe.port)

        status, body = asyncio.run(main())
        assert status == 200  # degraded still serves traffic
        assert body["status"] == "degraded"
        assert "breaker_open" in body["reasons"]

    def test_quarantine_degrades_and_clears(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    service._snapshot_degraded = True
                    during = await asyncio.to_thread(readyz, fe.port)
                    service._snapshot_degraded = False
                    after = await asyncio.to_thread(readyz, fe.port)
                    return during, after

        during, after = asyncio.run(main())
        assert during[1]["status"] == "degraded"
        assert "snapshot_quarantined" in during[1]["reasons"]
        assert after == (200, {"status": "ready", "reasons": []})

    def test_pool_gone_in_process_fallback_degrades(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    service._pool_suspect = True
                    verdict = await asyncio.to_thread(readyz, fe.port)
                    # Degraded must keep answering /suggest correctly.
                    answer = await asyncio.to_thread(
                        get, fe.port, "/suggest?q=tree+icdt&k=3"
                    )
                    return verdict, answer[0]

        (status, body), suggest_status = asyncio.run(main())
        assert status == 200
        assert body["status"] == "degraded"
        assert "worker_pool_suspect" in body["reasons"]
        assert suggest_status == 200

    def test_closed_service_is_not_ready(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    service._closed = True
                    try:
                        return await asyncio.to_thread(readyz, fe.port)
                    finally:
                        service._closed = False

        status, body = asyncio.run(main())
        assert status == 503
        assert body["status"] == "not_ready"
        assert "service_closed" in body["reasons"]

    def test_readyz_is_get_only(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        post, fe.port, "/readyz"
                    )

        status, _, _ = asyncio.run(main())
        assert status == 405


# ----------------------------------------------------------------------
# /readyz — sharded service
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_manifest(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ops-shards")
    corpus = build_corpus_index(XMLDocument(paper_example_tree()))
    build_sharded_snapshot(corpus, str(directory), 2)
    return load_manifest(os.path.join(str(directory), MANIFEST_NAME))


class TestReadyzSharded:
    def test_in_process_scatter_is_ready(self, sharded_manifest):
        async def main():
            with ShardedSuggestionService(
                sharded_manifest, config=XCleanConfig(max_errors=1)
            ) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(readyz, fe.port)

        status, body = asyncio.run(main())
        assert (status, body["status"]) == (200, "ready")

    def test_mid_swap_drain_gate_does_not_flap(self, sharded_manifest):
        # The swap gate queues arrivals instead of shedding them, so a
        # swap in progress must read as plain ready — flapping here
        # would eject the instance from rotation on every live update.
        async def main():
            with ShardedSuggestionService(
                sharded_manifest, config=XCleanConfig(max_errors=1)
            ) as service:
                async with front_end(service) as fe:
                    service._swapping = True
                    try:
                        verdict = await asyncio.to_thread(
                            readyz, fe.port
                        )
                        payload = await asyncio.to_thread(
                            statusz, fe.port
                        )
                    finally:
                        service._swapping = False
                    return verdict, payload

        (status, body), payload = asyncio.run(main())
        assert (status, body) == (
            200, {"status": "ready", "reasons": []}
        )
        # /statusz still reports the swap for operators to see.
        assert payload["service"]["swapping"] is True

    def test_replica_breaker_open_degrades_with_shard_reason(
        self, sharded_manifest
    ):
        async def main():
            with ShardedSuggestionService(
                sharded_manifest,
                config=XCleanConfig(max_errors=1),
                replicas=1,
            ) as service:
                async with front_end(service) as fe:
                    open_breaker(service._pools[0][0].breaker)
                    return await asyncio.to_thread(readyz, fe.port)

        status, body = asyncio.run(main())
        assert status == 200
        assert body["status"] == "degraded"
        assert "breaker_open shard=0 replica=0" in body["reasons"]
        # The only replica of shard 0 is open: the whole shard fell
        # back to in-process execution, and the verdict names it.
        assert "in_process_fallback shard=0" in body["reasons"]


# ----------------------------------------------------------------------
# /statusz — across apply_updates -> compact -> swap
# ----------------------------------------------------------------------


class TestStatuszSingle:
    def test_raw_socket_statusz(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        raw_roundtrip, fe.port,
                        b"GET /statusz HTTP/1.1\r\n"
                        b"Host: x\r\nConnection: close\r\n\r\n",
                    )

        raw = asyncio.run(main())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        payload = json.loads(body)
        assert payload["health"]["state"] == "ready"
        assert payload["service"]["mode"] == "single"
        assert payload["process"]["pid"] > 0
        assert payload["front_end"]["draining"] is False
        assert payload["slo"]["windows"]
        assert payload["ts"] > 0

    def test_statusz_tracks_update_compact_swap(self, live_service):
        async def main():
            async with front_end(live_service) as fe:
                port = fe.port
                initial = await asyncio.to_thread(statusz, port)

                live_service.apply_updates([NEW_BOOK])
                applied = await asyncio.to_thread(statusz, port)
                applied_ready = await asyncio.to_thread(readyz, port)

                live_service.compact()
                compacted = await asyncio.to_thread(statusz, port)
                compacted_ready = await asyncio.to_thread(readyz, port)

                live_service.swap_snapshot()
                swapped = await asyncio.to_thread(statusz, port)
                return (initial, applied, applied_ready,
                        compacted, compacted_ready, swapped)

        (initial, applied, applied_ready,
         compacted, compacted_ready, swapped) = asyncio.run(main())

        service = initial["service"]
        assert service["data_generation"] == 0
        assert service["live"]["wal_records"] == 0
        assert service["live"]["delta"]["records"] == 0

        # After apply: WAL depth and delta size visible; serving is
        # pinned to the in-process overlay -> degraded, not unready.
        service = applied["service"]
        assert service["live"]["wal_records"] == 1
        assert service["live"]["wal_bytes"] > 0
        assert service["live"]["delta"]["approx_bytes"] > 0
        assert service["live_pinned"] is True
        assert service["data_generation"] == 0
        assert applied_ready[0] == 200
        assert applied_ready[1]["status"] == "degraded"
        assert "live_overlay_pinned" in applied_ready[1]["reasons"]

        # After compact: fresh generation, WAL folded + truncated,
        # compaction outcome recorded, health back to ready.
        service = compacted["service"]
        assert service["data_generation"] == 1
        assert service["live"]["wal_records"] == 0
        assert service["live"]["generation"] == 1
        last = service["live"]["last_compaction"]
        assert last["outcome"] == "ok"
        assert last["generation"] == 1
        assert last["records_folded"] == 1
        assert last["duration_s"] > 0
        assert service["live_pinned"] is False
        assert compacted_ready[1] == {"status": "ready", "reasons": []}

        # Every install bumps the swap epoch monotonically.
        epochs = [
            payload["service"]["swap_epoch"]
            for payload in (initial, applied, compacted, swapped)
        ]
        assert epochs == sorted(epochs)
        assert epochs[-1] > epochs[0]

    def test_statusz_is_get_only(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.to_thread(
                        post, fe.port, "/statusz"
                    )

        status, _, _ = asyncio.run(main())
        assert status == 405


class TestStatuszSharded:
    def test_statusz_tracks_sharded_update_compact(self, tmp_path):
        document = base_document()
        directory = str(tmp_path / "shards")
        build_sharded_snapshot(
            build_corpus_index(document), directory, shards=2
        )
        manifest = load_manifest(
            os.path.join(directory, MANIFEST_NAME)
        )

        async def main(service):
            async with front_end(service) as fe:
                port = fe.port
                initial = await asyncio.to_thread(statusz, port)
                service.apply_updates([NEW_BOOK])
                applied = await asyncio.to_thread(statusz, port)
                service.compact()
                compacted = await asyncio.to_thread(statusz, port)
                return initial, applied, compacted

        with ShardedSuggestionService(
            manifest, config=XCleanConfig(max_errors=2)
        ) as service:
            service.enable_live_updates(document)
            initial, applied, compacted = asyncio.run(main(service))

        assert initial["service"]["mode"] == "sharded"
        assert initial["service"]["shard_count"] == 2
        assert len(initial["service"]["shards"]) == 2
        for shard in initial["service"]["shards"]:
            assert shard["path"]
            assert shard["replicas"] == []  # in-process scatter

        # Sharded apply folds + swaps inline (no overlay phase): the
        # WAL is already folded away by the time apply returns.
        assert applied["service"]["live"]["wal_records"] == 0
        assert (
            applied["service"]["data_generation"]
            > initial["service"]["data_generation"]
        )
        last = applied["service"]["live"]["last_compaction"]
        assert last["outcome"] == "ok"
        assert last["records_folded"] == 1

        # An explicit compact() still rolls the generation forward.
        assert compacted["service"]["live"]["wal_records"] == 0
        assert (
            compacted["service"]["data_generation"]
            > applied["service"]["data_generation"]
        )
        assert (
            compacted["service"]["swap_epoch"]
            > initial["service"]["swap_epoch"]
        )


# ----------------------------------------------------------------------
# Correlation ids: one id joins log line, span tree, flight entry
# ----------------------------------------------------------------------


class TestCorrelationId:
    def test_one_id_joins_log_spans_and_flight_entry(
        self, corpus, tmp_path
    ):
        log_path = str(tmp_path / "access.jsonl")
        supplied = "corr-id-0123456789abcdef"

        async def main(service, log):
            async with front_end(service, request_log=log) as fe:
                return await asyncio.to_thread(
                    get, fe.port, "/suggest?q=tree+icdt&k=3",
                    {"X-Request-Id": supplied},
                )

        with make_service(corpus, tracer=Tracer()) as service:
            log = RequestLog(log_path)
            status, headers, _ = asyncio.run(main(service, log))
            assert status == 200
            # 1. Echoed back to the caller.
            assert headers["X-Request-Id"] == supplied
            # 2. On the span tree as the trace id.
            root = service.tracer.last_trace
            assert root.attributes["trace_id"] == supplied
            # 3. In the flight recorder, findable by that same id.
            entry = service.flight_recorder.find(supplied)
            assert entry is not None
            assert entry.trace_id == supplied
        # 4. On the access-log line.
        (line,) = read_jsonl(log_path)
        assert line["id"] == supplied
        assert line["path"] == "/suggest"
        assert line["status"] == 200
        assert line["outcome"] == "served"
        assert line["query"] == "tree icdt"
        assert line["k"] == 3
        assert line["coalesced"] is False
        assert line["latency_s"] >= 0
        assert line["ts"] > 0

    def test_concurrent_requests_keep_their_own_ids(
        self, corpus, tmp_path
    ):
        # Eight clients at once, each request with its own id and its
        # own (cache-missing) query: every id still names exactly one
        # span tree, flight entry and access-log line — its own.  A
        # small injected delay inside each computation keeps requests
        # overlapping in the executor on every run.
        clients, per_client = 8, 25
        letters = "abcfghjklmnopqrsuvwxyz"
        queries = [f"icd{a} tre{b}" for a in letters for b in letters]
        log_path = str(tmp_path / "access.jsonl")

        def client(index):
            sent = {}
            for number in range(per_client):
                query = queries[index * per_client + number]
                request_id = f"client{index}-req{number}"
                status, headers, _ = get(
                    fe_port, "/suggest?q=" + query.replace(" ", "+")
                    + "&k=3", {"X-Request-Id": request_id},
                )
                assert status == 200
                assert headers["X-Request-Id"] == request_id
                sent[request_id] = query
            return sent

        async def main(service, log):
            nonlocal fe_port
            async with front_end(service, request_log=log) as fe:
                fe_port = fe.port
                results = await asyncio.gather(*(
                    asyncio.to_thread(client, index)
                    for index in range(clients)
                ))
            return {key: value for sent in results
                    for key, value in sent.items()}

        fe_port = None
        retained = 2 * clients * per_client
        recorder = FlightRecorder(
            capacity=retained, notable_capacity=retained
        )
        with make_service(
            corpus,
            config=XCleanConfig(
                max_errors=1, fault_plan="variant.gen:delay=0.002"
            ),
            tracer=Tracer(),
            flight_recorder=recorder,
        ) as service:
            sent = asyncio.run(main(service, RequestLog(log_path)))
        assert len(sent) == clients * per_client
        entries = list(recorder.entries())
        assert len(entries) == len(sent)
        for request_id, query in sent.items():
            mine = [e for e in entries if e.trace_id == request_id]
            assert len(mine) == 1, request_id
            (entry,) = mine
            assert entry.query == query
            names = [span.name for span in entry.trace.walk()]
            assert names.count("request") == 1
            assert names.count("merge") == 1, (request_id, names)
        logged = {
            line["id"]: line["query"] for line in read_jsonl(log_path)
        }
        assert logged == sent

    def test_invalid_inbound_id_is_replaced(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    return await asyncio.gather(
                        asyncio.to_thread(
                            get, fe.port, "/suggest?q=tree",
                            {"X-Request-Id": "bad id with spaces"},
                        ),
                        asyncio.to_thread(
                            get, fe.port, "/suggest?q=tree",
                            {"X-Request-Id": "x" * 65},
                        ),
                    )

        for _, headers, _ in asyncio.run(main()):
            minted = headers["X-Request-Id"]
            assert len(minted) == 16
            int(minted, 16)  # fresh hex id, not the hostile input

    def test_id_minted_when_absent_and_errors_logged(
        self, corpus, tmp_path
    ):
        log_path = str(tmp_path / "access.jsonl")

        async def main(service, log):
            async with front_end(service, request_log=log) as fe:
                ok = await asyncio.to_thread(
                    get, fe.port, "/suggest?q=tree"
                )
                missing = await asyncio.to_thread(
                    get, fe.port, "/nope"
                )
                return ok, missing

        with make_service(corpus) as service:
            log = RequestLog(log_path)
            ok, missing = asyncio.run(main(service, log))
        assert ok[0] == 200 and missing[0] == 404
        ok_line, missing_line = read_jsonl(log_path)
        # Minted id is echoed and logged identically.
        assert ok_line["id"] == ok[1]["X-Request-Id"]
        assert len(ok_line["id"]) == 16
        # Error responses carry their own fresh id and outcome.
        assert missing_line["id"] == missing[1]["X-Request-Id"]
        assert missing_line["status"] == 404
        assert missing_line["outcome"] == "client_error"


# ----------------------------------------------------------------------
# SLO + gauges on the wire
# ----------------------------------------------------------------------


class TestSLOWiring:
    def test_suggest_outcomes_feed_the_slo_rings(self, corpus):
        async def main():
            with make_service(corpus) as service:
                async with front_end(service) as fe:
                    await asyncio.gather(
                        asyncio.to_thread(
                            get, fe.port, "/suggest?q=tree+icdt"
                        ),
                        asyncio.to_thread(
                            get, fe.port, "/suggest?q=icdt"
                        ),
                    )
                    # Non-suggest and client-error traffic must not
                    # burn the availability budget.
                    await asyncio.to_thread(get, fe.port, "/nope")
                    await asyncio.to_thread(get, fe.port, "/suggest")
                    return fe.slo.window_report(60)

        view = asyncio.run(main())
        assert view["total"] == 2
        assert view["served"] == 2
        assert view["availability"] == 1.0
        assert view["availability_burn_rate"] == 0.0

    def test_metrics_exports_slo_and_process_gauges(self, corpus):
        async def main():
            with make_service(
                corpus, metrics=MetricsRegistry()
            ) as service:
                async with front_end(service) as fe:
                    await asyncio.to_thread(
                        get, fe.port, "/suggest?q=tree+icdt"
                    )
                    return await asyncio.to_thread(
                        get, fe.port, "/metrics"
                    )

        _, _, body = asyncio.run(main())
        text = body.decode("utf-8")
        assert 'xclean_slo_availability{window="1m"} 1' in text
        assert "# TYPE xclean_slo_availability gauge" in text
        assert "xclean_proc_rss_bytes" in text
        assert "xclean_proc_uptime_seconds" in text
        assert 'xclean_proc_gc_collections{gen="0"}' in text
