"""Section VI-B — SLCA/ELCA semantics vs specific-node-type semantics.

The paper: "It works equally well on the DBLP dataset (which is
data-centric), but less well on the INEX dataset (which is
document-centric)."  We evaluate the alternative LCA semantics (SLCA
per Section VI-B, plus the ELCA extension) against node types on both
datasets' RAND workloads and assert that comparison.

The ms columns compare the semantics, not cache states: the packed
view is built untimed, and every column starts from an empty
merged-columns memo (``bump_generation``; each suggester's variant
cache is fresh through ``fresh_cache()``), so no column reads columns
another merged.
"""

from _common import bench_scale, emit, settings

from repro.core.config import XCleanConfig
from repro.core.slca_cleaner import ELCACleanSuggester
from repro.eval.reporting import format_table, shape_check
from repro.eval.runner import evaluate_suggester


def test_ablation_slca(benchmark):
    scale = bench_scale()
    rows = []
    mrr = {}
    for dataset in ("DBLP", "INEX"):
        setting = settings(scale)[dataset]
        records = setting.workloads["RAND"]
        setting.corpus.packed_view()
        suggesters = {
            "node-type": setting.xclean(),
            "slca": setting.xclean_slca(),
            "elca": ELCACleanSuggester(
                setting.corpus,
                generator=setting.generator.fresh_cache(),
                config=XCleanConfig(max_errors=2, gamma=1000),
            ),
        }
        results = {}
        for label, suggester in suggesters.items():
            setting.corpus.bump_generation()  # cold memo
            results[label] = evaluate_suggester(suggester, records)
        node_type, slca, elca = results.values()
        mrr[(dataset, "node-type")] = node_type.mrr
        mrr[(dataset, "slca")] = slca.mrr
        mrr[(dataset, "elca")] = elca.mrr
        rows.append(
            (
                dataset,
                node_type.mrr,
                slca.mrr,
                elca.mrr,
                node_type.mean_time * 1000,
                slca.mean_time * 1000,
                elca.mean_time * 1000,
            )
        )
    table = format_table(
        (
            "Dataset",
            "node-type MRR",
            "SLCA MRR",
            "ELCA MRR",
            "node-type ms",
            "SLCA ms",
            "ELCA ms",
        ),
        rows,
        title=f"Section VI-B — LCA semantics vs node types "
        f"({scale} scale, RAND)",
    )

    dblp_gap = abs(mrr[("DBLP", "slca")] - mrr[("DBLP", "node-type")])
    elca_gap = abs(mrr[("DBLP", "elca")] - mrr[("DBLP", "node-type")])
    checks = [
        shape_check(
            "SLCA works about as well as node types on data-centric "
            f"DBLP (gap {dblp_gap:.2f})",
            dblp_gap <= 0.15,
        ),
        shape_check(
            "ELCA (extension) also holds up on DBLP "
            f"(gap {elca_gap:.2f})",
            elca_gap <= 0.15,
        ),
        shape_check(
            "SLCA does not beat node types on document-centric INEX "
            f"({mrr[('INEX', 'slca')]:.2f} vs "
            f"{mrr[('INEX', 'node-type')]:.2f})",
            mrr[("INEX", "slca")]
            <= mrr[("INEX", "node-type")] + 0.02,
        ),
    ]
    emit("ablation_slca", table + "\n" + "\n".join(checks))
    assert all("[OK ]" in c for c in checks)

    setting = settings(scale)["DBLP"]
    record = setting.workloads["RAND"][0]
    slca_suggester = setting.xclean_slca()
    benchmark.pedantic(
        lambda: slca_suggester.suggest(record.dirty_text, 10),
        rounds=5,
        iterations=1,
    )
