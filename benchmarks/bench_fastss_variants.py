"""Micro-benchmark — FastSS variant generation (Section V-A).

The paper uses a (partitioned) FastSS index because it is "one of the
fastest approximate string matching methods under edit distance
constraints".  We compare plain FastSS, partitioned FastSS, the
snapshot-backed index a server probes (the partitioned ε=3 tables a
default ``build_snapshot`` embeds, mapped from the file and queried at
ε=2), and the brute-force scan, asserting:

* all four return identical variant sets (correctness);
* every index is much faster than the brute-force scan;
* partitioning shrinks the index (bucket count) on long-token
  vocabularies — the paper's space argument.
"""

import os
import tempfile
import time

from _common import bench_scale, emit, settings

from repro.eval.reporting import format_table, shape_check
from repro.fastss.index import (
    BruteForceVariants,
    FastSSIndex,
    PartitionedFastSSIndex,
)
from repro.index.corpus import build_corpus_index
from repro.index.snapshot import build_snapshot, load_snapshot
from repro.xmltree.document import XMLDocument
from repro.xmltree.node import XMLNode

PROBE_WORDS = (
    "clusttering",
    "architcture",
    "verifcation",
    "datbase",
    "montor",
    "indx",
)


def mapped_index(tokens, directory):
    """The FastSS index a default snapshot over ``tokens`` serves at ε=2.

    The tables depend on the vocabulary alone, so the snapshot is of a
    flat corpus with one element per token: the INEX corpus itself is
    too deep for the snapshot's int64 packed Dewey keys at default
    scale.
    """
    root = XMLNode("vocabulary")
    for token in tokens:
        root.add_child(XMLNode("token", text=token))
    path = os.path.join(directory, "vocabulary.xcs3")
    build_snapshot(build_corpus_index(XMLDocument(root)), path)
    loaded = load_snapshot(path)
    assert sorted(loaded.vocabulary) == tokens
    return loaded.variant_generator(2)._index


def test_fastss_variants(benchmark):
    scale = bench_scale()
    setting = settings(scale)["INEX"]
    tokens = sorted(setting.corpus.vocabulary.tokens())

    plain = FastSSIndex(tokens, max_errors=2)
    partitioned = PartitionedFastSSIndex(
        tokens, max_errors=2, partition_threshold=7
    )
    brute = BruteForceVariants(tokens, max_errors=2)
    with tempfile.TemporaryDirectory() as tmp:
        mapped = mapped_index(tokens, tmp)

    def probe_all(index):
        return [index.variants(word, 2) for word in PROBE_WORDS]

    identical = (
        probe_all(plain)
        == probe_all(partitioned)
        == probe_all(mapped)
        == probe_all(brute)
    )

    methods = (
        ("FastSS", plain),
        ("Partitioned", partitioned),
        ("Snapshot", mapped),
        ("BruteForce", brute),
    )
    timings = {}
    for name, index in methods:
        started = time.perf_counter()
        for _ in range(3):
            probe_all(index)
        timings[name] = (time.perf_counter() - started) / (
            3 * len(PROBE_WORDS)
        )

    rows = [(name, timings[name] * 1000) for name, _index in methods]
    table = format_table(
        ("method", "per-keyword variants (ms)"),
        rows,
        title=f"FastSS variant generation over |V|={len(tokens)} "
        f"({scale} scale)",
    )
    checks = [
        shape_check("all four methods agree exactly", identical),
        shape_check(
            "plain FastSS beats brute force "
            f"({timings['BruteForce']/timings['FastSS']:.0f}x)",
            timings["FastSS"] < timings["BruteForce"],
        ),
        shape_check(
            "partitioned FastSS beats brute force "
            f"({timings['BruteForce']/timings['Partitioned']:.0f}x)",
            timings["Partitioned"] < timings["BruteForce"],
        ),
        shape_check(
            "snapshot-backed FastSS beats brute force "
            f"({timings['BruteForce']/timings['Snapshot']:.0f}x)",
            timings["Snapshot"] < timings["BruteForce"],
        ),
        shape_check(
            "partitioning shrinks the signature space "
            f"(plain buckets {plain.bucket_count})",
            partitioned.bucket_count < plain.bucket_count,
        ),
    ]
    emit("fastss_variants", table + "\n" + "\n".join(checks))
    assert all("[OK ]" in c for c in checks)

    benchmark.pedantic(
        lambda: partitioned.variants("clusttering", 2),
        rounds=10,
        iterations=1,
    )
