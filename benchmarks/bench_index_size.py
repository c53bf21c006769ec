"""Index sizes — Section VII-A's report.

The paper: "The index sizes of the INEX and DBLP datasets are 1.8GB
and 400MB, respectively" — i.e. the index is a small multiple of the
raw XML (0.31× and 0.76×).  We report raw XML size and the size of the
compact archival binary (v2) format, whose Dewey delta + varint coding
is the counterpart of a disk-resident index, asserting:

* the binary index is within a small multiple of the raw XML, like
  the paper's;
* the binary round-trip is lossless.
"""

from _common import bench_scale, emit, settings

from repro.eval.reporting import format_table, shape_check
from repro.index.storage_binary import dumps_binary, loads_binary


def test_index_size(benchmark):
    scale = bench_scale()
    rows = []
    measures = {}
    for label in ("INEX", "DBLP"):
        setting = settings(scale)[label]
        xml_bytes = setting.document.stats.size_bytes
        binary_bytes = len(dumps_binary(setting.corpus))
        measures[label] = (xml_bytes, binary_bytes)
        rows.append(
            (
                label,
                round(xml_bytes / 1024, 1),
                round(binary_bytes / 1024, 1),
                f"{binary_bytes / xml_bytes:.2f}x",
            )
        )
    table = format_table(
        ("Dataset", "XML (KB)", "binary index (KB)", "binary/XML"),
        rows,
        title=f"Index sizes ({scale} scale; paper: INEX 1.8GB/5.8GB,"
        " DBLP 400MB/526MB)",
    )

    checks = []
    for label in ("INEX", "DBLP"):
        xml_bytes, binary_bytes = measures[label]
        checks.append(
            shape_check(
                f"{label}: binary index within 2x of the raw XML "
                f"({binary_bytes/xml_bytes:.2f}x; paper ratios "
                "0.31x/0.76x)",
                binary_bytes <= 2 * xml_bytes,
            )
        )
    # Lossless round-trip on the larger corpus.
    corpus = settings(scale)["INEX"].corpus
    reloaded = loads_binary(dumps_binary(corpus))
    checks.append(
        shape_check(
            "binary round-trip is lossless",
            reloaded.describe() == corpus.describe()
            and reloaded.subtree_token_counts
            == corpus.subtree_token_counts,
        )
    )
    emit("index_size", table + "\n" + "\n".join(checks))
    assert all("[OK ]" in c for c in checks)

    dblp = settings(scale)["DBLP"].corpus
    benchmark.pedantic(
        lambda: loads_binary(dumps_binary(dblp)), rounds=1, iterations=1
    )
