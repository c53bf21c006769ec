"""Tests for the xclean command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.index.corpus import build_corpus_index
from repro.index.storage_binary import save_index_binary
from repro.obs.export import validate_chrome_trace
from repro.xmltree.builder import paper_example_tree
from repro.xmltree.document import XMLDocument


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "dblp", "--out", "x.xml"]
        )
        assert args.command == "generate"
        assert args.dataset == "dblp"


class TestPipeline:
    def test_generate_index_suggest(self, tmp_path, capsys):
        xml_path = str(tmp_path / "corpus.xml")
        index_path = str(tmp_path / "corpus.xcs3")

        assert main(
            [
                "generate",
                "--dataset",
                "dblp",
                "--out",
                xml_path,
                "--size",
                "80",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "nodes" in out

        assert main(["index", "--xml", xml_path, "--out", index_path]) == 0
        out = capsys.readouterr().out
        assert "postings" in out

        assert main(
            [
                "suggest",
                "--index",
                index_path,
                "--query",
                "datt",
                "-k",
                "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_default_index_is_a_live_updatable_snapshot(
        self, tmp_path, capsys
    ):
        # verify, update and compact accept only v3 snapshots, so the
        # plain `xclean index` output must be one.
        xml_path = str(tmp_path / "u.xml")
        index_path = str(tmp_path / "u.xcs3")
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps([{
            "op": "add", "dewey": [1], "subtree": {
                "label": "article", "children": [
                    {"label": "title", "text": "zanzibar consistency"}
                ],
            },
        }]))
        main(["generate", "--dataset", "dblp", "--out", xml_path,
              "--size", "40"])
        assert main(["index", "--xml", xml_path, "--out", index_path]) == 0
        assert main(["verify", "--index", index_path]) == 0
        assert main(
            ["update", "--index", index_path, "--ops", str(ops_path),
             "--source", xml_path, "--compact"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["suggest", "--index", index_path, "--query", "zanziber",
             "-k", "1"]
        ) == 0
        assert "zanzibar" in capsys.readouterr().out

    def test_index_has_no_format_option(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["index", "--xml", "x.xml", "--out", "x", "--format", "v3"]
            )
        capsys.readouterr()

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_older_format_index_is_an_error(
        self, tmp_path, capsys, version
    ):
        # v1 text and v2 binary files are not snapshots: a one-line
        # error and exit 1, no traceback.
        path = str(tmp_path / f"old.{version}")
        if version == "v1":  # the v1 text header; its codec is gone
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("XCLEANIDX 2\nNAME old\n")
        else:
            save_index_binary(build_corpus_index(
                XMLDocument(paper_example_tree(), name="old")
            ), path)
        code = main(["suggest", "--index", path, "--query", "tree"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snapshot" in err
        assert "Traceback" not in err

    def test_semantics_options(self, tmp_path, capsys):
        xml_path = str(tmp_path / "s.xml")
        index_path = str(tmp_path / "s.xcs3")
        main(["generate", "--dataset", "dblp", "--out", xml_path,
              "--size", "60"])
        main(["index", "--xml", xml_path, "--out", index_path])
        capsys.readouterr()
        for semantics in ("slca", "elca"):
            assert main(
                ["suggest", "--index", index_path, "--query", "datt",
                 "--semantics", semantics]
            ) == 0
        assert main(
            ["suggest", "--index", index_path, "--query", "datt",
             "--prior", "length"]
        ) == 0

    def test_score_cells_are_not_rounded_to_zero(self, tmp_path, capsys):
        # Eq. 10 scores are ~1e-6: a fixed 3-decimal cell reads 0.000.
        xml_path = str(tmp_path / "p.xml")
        index_path = str(tmp_path / "p.xcs3")
        main(["generate", "--dataset", "dblp", "--out", xml_path,
              "--size", "60"])
        main(["index", "--xml", xml_path, "--out", index_path])
        capsys.readouterr()
        runs = [
            ["suggest", "--query", "ricardo brunoo", "--semantics", s]
            for s in ("node-type", "slca", "elca")
        ] + [["search", "--query", "ricardo bruno"]]
        for args in runs:
            assert main(args + ["--index", index_path, "-k", "1"]) == 0
            header, _rule, row = capsys.readouterr().out.splitlines()[:3]
            split = re.compile(r"\s{2,}").split
            cells = dict(zip(split(header), split(row)))
            assert float(cells["score"]) > 0, args

    def test_generate_wiki(self, tmp_path, capsys):
        xml_path = str(tmp_path / "wiki.xml")
        assert main(
            ["generate", "--dataset", "wiki", "--out", xml_path,
             "--size", "10"]
        ) == 0

    def test_suggest_missing_index_fails(self, tmp_path, capsys):
        code = main(
            [
                "suggest",
                "--index",
                str(tmp_path / "missing.xcs3"),
                "--query",
                "tree",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_index_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xcs3"
        bad.write_text("not an index\n")
        code = main(
            ["suggest", "--index", str(bad), "--query", "tree"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_evaluate_small(self, capsys):
        assert main(
            ["evaluate", "--dataset", "dblp", "--scale", "small"]
        ) == 0
        out = capsys.readouterr().out
        assert "MRR" in out
        assert "DBLP-CLEAN" in out or "CLEAN" in out


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_obs")
    xml_path = str(root / "corpus.xml")
    index_path = str(root / "corpus.xcs3")
    assert main(
        ["generate", "--dataset", "dblp", "--out", xml_path,
         "--size", "80"]
    ) == 0
    assert main(["index", "--xml", xml_path, "--out", index_path]) == 0
    return index_path


class TestExplainCommand:
    def test_explain_table(self, built_index, capsys):
        capsys.readouterr()
        assert main(
            ["explain", "--index", built_index, "--query", "datt",
             "-k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "P(Q|C)" in out
        assert "U(C," in out

    def test_explain_json_reconstructs(self, built_index, capsys):
        capsys.readouterr()
        assert main(
            ["explain", "--index", built_index, "--query", "datt",
             "-k", "3", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["query"] == "datt"
        assert data["suggestions"], "expected candidates"
        top = data["suggestions"][0]
        assert top["reconstructed_score"] == pytest.approx(
            top["score"], rel=1e-9
        )


class TestTraceCommand:
    def test_trace_text(self, built_index, capsys):
        capsys.readouterr()
        assert main(
            ["trace", "--index", built_index, "--query", "datt"]
        ) == 0
        out = capsys.readouterr().out
        assert "suggest" in out
        assert "ms" in out

    def test_trace_chrome_validates(self, built_index, capsys):
        capsys.readouterr()
        assert main(
            ["trace", "--index", built_index, "--query", "datt",
             "--format", "chrome"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert validate_chrome_trace(data) == []
        assert any(
            e["name"] == "suggest" for e in data["traceEvents"]
        )

    def test_trace_jsonl_to_file(self, built_index, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        capsys.readouterr()
        assert main(
            ["trace", "--index", built_index, "--query", "datt",
             "--format", "jsonl", "--out", str(out_path)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        record = json.loads(out_path.read_text().splitlines()[0])
        assert record["name"] == "suggest"


class TestBatchCommand:
    def make_queries(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("datt\njournal\ndatt\n")
        return str(path)

    def test_batch_table_reports_partials(
        self, built_index, tmp_path, capsys
    ):
        capsys.readouterr()
        assert main(
            ["batch", "--index", built_index, "--queries",
             self.make_queries(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "partial" in out
        assert "q/s" in out

    def test_batch_json_per_query_stats(
        self, built_index, tmp_path, capsys
    ):
        capsys.readouterr()
        assert main(
            ["batch", "--index", built_index, "--queries",
             self.make_queries(tmp_path), "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["queries"]) == 3
        for entry in data["queries"]:
            assert {"query", "suggestions", "partial",
                    "result_cache_hits", "result_cache_misses",
                    "trace_id"} <= set(entry)
        first, _, third = data["queries"]
        assert first["result_cache_misses"] == 1
        assert third["result_cache_hits"] == 1  # duplicate of first
        assert first["trace_id"]
        assert data["service"]["queries_served"] == 3
        assert data["elapsed_s"] >= 0.0
        assert data["qps"] >= 0.0


class TestSearchCommand:
    def test_search_pipeline(self, tmp_path, capsys):
        xml_path = str(tmp_path / "q.xml")
        index_path = str(tmp_path / "q.xcs3")
        main(["generate", "--dataset", "dblp", "--out", xml_path,
              "--size", "80"])
        main(["index", "--xml", xml_path, "--out", index_path])
        capsys.readouterr()
        assert main(
            ["search", "--index", index_path, "--query", "journal",
             "--xml", xml_path, "-k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "entity" in out or "no results" in out

    def test_search_without_snippets(self, tmp_path, capsys):
        xml_path = str(tmp_path / "r.xml")
        index_path = str(tmp_path / "r.xcs3")
        main(["generate", "--dataset", "dblp", "--out", xml_path,
              "--size", "80"])
        main(["index", "--xml", xml_path, "--out", index_path])
        capsys.readouterr()
        assert main(
            ["search", "--index", index_path, "--query", "journal"]
        ) == 0


@pytest.fixture(scope="module")
def paper_indexes(tmp_path_factory):
    """The paper's example tree as one snapshot and as 2 shards."""
    from repro.index.sharding import build_sharded_snapshot
    from repro.index.snapshot import build_snapshot

    root = tmp_path_factory.mktemp("cli_shards")
    corpus = build_corpus_index(XMLDocument(paper_example_tree()))
    snapshot = str(root / "paper.xcs3")
    build_snapshot(corpus, snapshot)
    shards = str(root / "shards")
    build_sharded_snapshot(corpus, shards, 2)
    queries = root / "queries.txt"
    queries.write_text("icdt tre\ntrie icde\n")
    return {"snapshot": snapshot, "shards": shards,
            "queries": str(queries)}


class TestShardDirectoryIndex:
    """Every ``--index`` reader accepts a shard directory: the serving
    commands answer through the coordinator, and the single-corpus
    commands refuse it with one ``error:`` line (never ``[Errno 21]``)."""

    SERVED = {
        "suggest": ["suggest", "--query", "icdt tre", "-k", "3"],
        "metrics": ["metrics", "--queries", "{queries}",
                    "--format", "json"],
    }
    SINGLE_CORPUS = {
        "explain": ["explain", "--query", "icdt tre"],
        "trace": ["trace", "--query", "icdt tre"],
        "search": ["search", "--query", "icdt"],
        "chaos": ["chaos", "--queries", "{queries}",
                  "--plan", "worker.init:raise"],
        "suggest-slca": ["suggest", "--query", "icdt tre",
                         "--semantics", "slca"],
    }

    @staticmethod
    def argv(template, paper_indexes, index):
        argv = [part.format(**paper_indexes) for part in template]
        return argv[:1] + ["--index", paper_indexes[index]] + argv[1:]

    @pytest.mark.parametrize(
        "command", sorted({**SERVED, **SINGLE_CORPUS})
    )
    def test_shard_directory(self, command, paper_indexes, capsys):
        capsys.readouterr()
        if command in self.SERVED:
            template = self.SERVED[command]
            assert main(self.argv(template, paper_indexes, "shards")) == 0
            sharded = capsys.readouterr().out
            if command == "suggest":
                # The coordinator's answer is the single index's answer.
                assert main(
                    self.argv(template, paper_indexes, "snapshot")
                ) == 0
                assert sharded == capsys.readouterr().out
                assert "(no suggestions)" not in sharded
            else:
                stages = json.loads(sharded)["stages"]
                assert {"scatter", "gather", "merge"} <= set(stages)
            return
        template = self.SINGLE_CORPUS[command]
        assert main(self.argv(template, paper_indexes, "shards")) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "shard manifest" in lines[0]
        assert "Errno" not in lines[0]
