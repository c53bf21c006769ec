"""Closed- and open-loop load harness for the HTTP serving tier.

Starts real ``xclean serve`` processes over a synthetic DBLP index and
drives them over TCP:

* **closed loop** — N keep-alive client threads issuing back-to-back
  requests, swept over concurrency levels; reports p50/p95/p99
  latency, throughput, and shed (503) counts per level;
* **open loop** — fixed-rate Poisson-less arrivals with latency
  measured from the *scheduled* arrival time, so queueing delay is
  visible (closed-loop latency hides it by self-throttling);
* **single-flight coalescing** — 32 barrier-synchronized clients
  repeatedly request the same query against a server with the result
  cache disabled, with coalescing on vs off.  Backend executions are
  read from ``/stats``; the coalescing server must do at most half
  the work, and every coalesced answer must be byte-identical;
* **graceful shutdown** — every server is stopped with SIGTERM and
  must drain and exit 0.

Shapes asserted: zero 5xx responses other than 503 anywhere, exit 0
on SIGTERM, and a >= 2x reduction in backend executions from
coalescing.  Results land in ``out/load.txt`` and
``out/BENCH_load.json``.

Run with ``--smoke`` (or ``REPRO_BENCH_SCALE=small``) for a quick CI
pass.
"""

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from _common import OUT_DIR, bench_scale, emit

REPO_ROOT = Path(__file__).resolve().parent.parent

SCALES = {
    "small": {
        "publications": 80,
        "sweep": (1, 4, 8),
        "requests_per_level": 90,
        "open_loop_rate": 25.0,
        "open_loop_seconds": 2.0,
        "coalesce_concurrency": 16,
        "coalesce_rounds": 3,
    },
    "default": {
        "publications": 300,
        "sweep": (1, 2, 4, 8, 16, 32),
        "requests_per_level": 240,
        "open_loop_rate": 40.0,
        "open_loop_seconds": 4.0,
        "coalesce_concurrency": 32,
        "coalesce_rounds": 5,
    },
}


# ----------------------------------------------------------------------
# Server management
# ----------------------------------------------------------------------


class Server:
    """One ``xclean serve`` subprocess on an ephemeral port."""

    def __init__(self, index_path: Path, *extra_args: str):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--index", str(index_path), "--port", "0",
                *extra_args,
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            rest = self.proc.stdout.read()
            raise RuntimeError(
                f"server failed to start: {line!r} {rest!r}"
            )
        self.port = int(line.rsplit(":", 1)[1])

    def stats(self) -> dict:
        status, _, body = get(self.port, "/stats")
        assert status == 200
        return json.loads(body)

    def stop(self) -> int:
        """SIGTERM the server; it must drain and exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise AssertionError(
                "server did not drain within 30s of SIGTERM"
            ) from None
        assert code == 0, f"server exited {code} on SIGTERM, not 0"
        return code


def build_index(scale: str, workdir: Path) -> Path:
    """Generate a synthetic DBLP corpus and a v3 snapshot index."""
    xml_path = workdir / "dblp.xml"
    index_path = workdir / "dblp.xcs3"
    publications = SCALES[scale]["publications"]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    for args in (
        ["generate", "--dataset", "dblp", "--size",
         str(publications), "--out", str(xml_path)],
        ["index", "--xml", str(xml_path), "--out", str(index_path)],
    ):
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=REPO_ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
    return index_path


def workload_queries(index_path: Path) -> list[str]:
    """Misspelled queries built from the index's own vocabulary."""
    from repro.index.snapshot import load_snapshot

    corpus = load_snapshot(str(index_path))
    rows = sorted(
        corpus.vocabulary.export_rows(),
        key=lambda row: -row[2],  # document frequency
    )
    tokens = [row[0] for row in rows if len(row[0]) >= 5][:40]
    queries = []
    for i, token in enumerate(tokens):
        partner = tokens[(i + 7) % len(tokens)]
        # Drop one character: an edit-distance-1 miss with a
        # guaranteed in-vocabulary correction.
        queries.append(f"{token[:-1]} {partner}")
    return queries or ["databas systm"]


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


def get(port: int, target: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            response.read(),
        )
    finally:
        conn.close()


class Tally:
    """Thread-safe accumulation of per-request outcomes."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies_ms: list[float] = []
        self.statuses: dict[int, int] = {}

    def record(self, status: int, latency_ms: float) -> None:
        with self.lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status == 200:
                self.latencies_ms.append(latency_ms)

    def shed(self) -> int:
        return self.statuses.get(503, 0)

    def other_5xx(self) -> int:
        return sum(
            count for status, count in self.statuses.items()
            if status >= 500 and status != 503
        )


def percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        int(fraction * len(sorted_values)),
    )
    return sorted_values[index]


def summarize(tally: Tally, elapsed: float) -> dict:
    latencies = sorted(tally.latencies_ms)
    total = sum(tally.statuses.values())
    return {
        "requests": total,
        "throughput_rps": round(total / elapsed, 1) if elapsed else 0,
        "p50_ms": round(percentile(latencies, 0.50), 2),
        "p95_ms": round(percentile(latencies, 0.95), 2),
        "p99_ms": round(percentile(latencies, 0.99), 2),
        "shed_503": tally.shed(),
        "other_5xx": tally.other_5xx(),
        "statuses": dict(sorted(tally.statuses.items())),
    }


def closed_loop(
    port: int, queries: list[str], concurrency: int, total: int
) -> dict:
    """N threads, each hammering back-to-back on one keep-alive conn."""
    tally = Tally()
    per_thread = total // concurrency

    def worker(worker_id: int) -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=30
        )
        try:
            for i in range(per_thread):
                query = queries[(worker_id * 31 + i) % len(queries)]
                target = "/suggest?q=" + query.replace(" ", "+")
                began = time.perf_counter()
                try:
                    conn.request("GET", target)
                    response = conn.getresponse()
                    response.read()
                    status = response.status
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=30
                    )
                    status = -1  # transport error, not an HTTP status
                tally.record(
                    status, (time.perf_counter() - began) * 1000.0
                )
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(n,))
        for n in range(concurrency)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result = summarize(tally, time.perf_counter() - began)
    result["concurrency"] = concurrency
    return result


def open_loop(
    port: int, queries: list[str], rate: float, seconds: float
) -> dict:
    """Fixed-rate arrivals; latency includes time spent queued.

    Each request is launched on its own thread at its scheduled
    arrival time regardless of whether earlier requests finished —
    an overloaded server shows up as growing latency, exactly the
    signal closed-loop clients hide.
    """
    tally = Tally()
    count = int(rate * seconds)
    interval = 1.0 / rate
    start = time.perf_counter() + 0.2  # headroom to spawn threads

    def fire(i: int) -> None:
        scheduled = start + i * interval
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        query = queries[i % len(queries)]
        target = "/suggest?q=" + query.replace(" ", "+")
        try:
            status, _, _ = get(port, target)
        except OSError:
            status = -1
        tally.record(
            status, (time.perf_counter() - scheduled) * 1000.0
        )

    threads = [
        threading.Thread(target=fire, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    result = summarize(tally, elapsed)
    result["offered_rate_rps"] = rate
    return result


def coalesce_experiment(
    index_path: Path, queries: list[str],
    concurrency: int, rounds: int,
) -> dict:
    """Identical-query bursts with single-flight on vs off.

    Both servers run with the result cache disabled so every request
    that reaches the backend really computes; the only dedup left is
    the front-end's single-flight.
    """

    def burst_server(*extra: str) -> tuple[int, set, Tally]:
        server = Server(
            index_path, "--result-cache-size", "0",
            "--max-pending", str(concurrency * 2), *extra,
        )
        tally = Tally()
        bodies: set = set()
        bodies_lock = threading.Lock()
        query = queries[0]
        target = "/suggest?q=" + query.replace(" ", "+") + "&k=5"
        barrier = threading.Barrier(concurrency)

        def worker() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                for _ in range(rounds):
                    barrier.wait()
                    began = time.perf_counter()
                    conn.request("GET", target)
                    response = conn.getresponse()
                    body = response.read()
                    tally.record(
                        response.status,
                        (time.perf_counter() - began) * 1000.0,
                    )
                    if response.status == 200:
                        with bodies_lock:
                            bodies.add(body)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=worker)
            for _ in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        executions = server.stats()["service"]["queries_served"]
        server.stop()
        return executions, bodies, tally

    on_execs, on_bodies, on_tally = burst_server()
    off_execs, off_bodies, off_tally = burst_server(
        "--no-single-flight"
    )
    submitted = concurrency * rounds
    # Every 200 answer for one (query, k) must be byte-identical —
    # coalesced fan-out shares the leader's bytes, and even without
    # coalescing the canonical JSON encoding is deterministic.
    assert len(on_bodies) == 1, (
        f"coalesced responses not byte-identical: {len(on_bodies)} "
        "distinct bodies"
    )
    assert off_execs > 0 and on_execs > 0
    reduction = off_execs / on_execs
    return {
        "concurrency": concurrency,
        "rounds": rounds,
        "submitted_per_server": submitted,
        "backend_executions_single_flight": on_execs,
        "backend_executions_no_single_flight": off_execs,
        "duplicate_execution_reduction": round(reduction, 2),
        "distinct_bodies_single_flight": len(on_bodies),
        "distinct_bodies_no_single_flight": len(off_bodies),
        "shed_503_single_flight": on_tally.shed(),
        "shed_503_no_single_flight": off_tally.shed(),
        "other_5xx": on_tally.other_5xx() + off_tally.other_5xx(),
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus and short sweeps (CI)",
    )
    parser.add_argument(
        "--url", default=None,
        help="benchmark an already-running server (host:port) "
        "instead of managing subprocesses; skips the coalesce and "
        "shutdown experiments",
    )
    args = parser.parse_args()
    scale = "small" if args.smoke else bench_scale()
    if scale not in SCALES:
        scale = "default"
    params = SCALES[scale]

    report: dict = {"scale": scale}
    lines = [f"HTTP load harness (scale={scale})", ""]

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        index_path = build_index(scale, workdir)
        queries = workload_queries(index_path)
        lines.append(f"workload: {len(queries)} misspelled queries")

        if args.url:
            host, _, port_text = args.url.rpartition(":")
            sweep_port = int(port_text)
            managed = None
        else:
            managed = Server(index_path)
            sweep_port = managed.port

        # Closed-loop concurrency sweep.
        sweep = []
        lines.append("")
        lines.append(
            f"{'conc':>5} {'reqs':>6} {'rps':>8} {'p50ms':>8} "
            f"{'p95ms':>8} {'p99ms':>8} {'503':>5}"
        )
        for concurrency in params["sweep"]:
            level = closed_loop(
                sweep_port, queries, concurrency,
                params["requests_per_level"],
            )
            sweep.append(level)
            lines.append(
                f"{concurrency:>5} {level['requests']:>6} "
                f"{level['throughput_rps']:>8} {level['p50_ms']:>8} "
                f"{level['p95_ms']:>8} {level['p99_ms']:>8} "
                f"{level['shed_503']:>5}"
            )
        report["closed_loop_sweep"] = sweep

        # Open loop at a fixed offered rate.
        open_result = open_loop(
            sweep_port, queries,
            params["open_loop_rate"], params["open_loop_seconds"],
        )
        report["open_loop"] = open_result
        lines.append("")
        lines.append(
            f"open loop @ {open_result['offered_rate_rps']} rps: "
            f"attained {open_result['throughput_rps']} rps, "
            f"p50 {open_result['p50_ms']}ms "
            f"p99 {open_result['p99_ms']}ms, "
            f"{open_result['shed_503']} shed"
        )

        if managed is not None:
            report["graceful_exit_code"] = managed.stop()
            lines.append("sweep server: drained and exited 0 on SIGTERM")

            coalesce = coalesce_experiment(
                index_path, queries,
                params["coalesce_concurrency"],
                params["coalesce_rounds"],
            )
            report["coalesce"] = coalesce
            lines.append("")
            lines.append(
                f"coalescing @ {coalesce['concurrency']} identical "
                f"clients x {coalesce['rounds']} rounds: "
                f"{coalesce['backend_executions_no_single_flight']} "
                f"backend executions without single-flight vs "
                f"{coalesce['backend_executions_single_flight']} with "
                f"({coalesce['duplicate_execution_reduction']}x fewer)"
            )

    # Shape checks: the serving tier sheds with 503 *only* — any other
    # 5xx is a bug — and coalescing must at least halve duplicate work.
    other_5xx = sum(level["other_5xx"] for level in sweep)
    other_5xx += report["open_loop"]["other_5xx"]
    if "coalesce" in report:
        other_5xx += report["coalesce"]["other_5xx"]
        reduction = report["coalesce"]["duplicate_execution_reduction"]
        assert reduction >= 2.0, (
            f"single-flight reduced duplicate executions only "
            f"{reduction}x (expected >= 2x)"
        )
    assert other_5xx == 0, f"{other_5xx} non-503 5xx responses"
    lines.append("")
    lines.append("all shape checks passed (0 non-503 5xx)")

    emit("load", "\n".join(lines))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_load.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
