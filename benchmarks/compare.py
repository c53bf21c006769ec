"""Regression gate: diff fresh BENCH_*.json against the committed baseline.

The benchmark harness writes one ``BENCH_<name>.json`` per suite into
``benchmarks/out/`` (committed as the baseline).  CI reruns the suites
into a scratch directory and calls this script to diff the *headline*
metrics — the handful of numbers the docs quote as floors — failing the
build when any regresses by more than the threshold.

Only headline metrics gate.  Everything else in the JSON (corpus sizes,
stage histograms, sweep rows) is context, and diffing it all would turn
every noisy timer into a flake.  Each headline carries a direction
(``higher`` is better for speedups, ``lower`` for latencies) and the
scale it was recorded at; a candidate recorded at a different
``REPRO_BENCH_SCALE`` is *skipped*, not failed — small-scale numbers
are not comparable to default-scale baselines.

Usage::

    python benchmarks/compare.py --baseline benchmarks/out \
        --candidate /tmp/bench_out [--threshold 0.15] [--out diff.json]

Exit status: 0 when nothing regressed (skips and missing candidates are
reported but do not fail), 1 when any headline regressed past the
threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The gated numbers: (file, dotted path, direction, scale recorded at).
#: Direction says which way is better; the threshold is applied on the
#: losing side only (a speedup may grow freely, a latency may shrink).
HEADLINES = (
    ("BENCH_hotpath.json", "merge.merge_only_ms_per_query", "lower", "default"),
    ("BENCH_load.json", "open_loop.p99_ms", "lower", "default"),
    ("BENCH_update.json", "ack.ack_p50_ms", "lower", "small"),
)

DEFAULT_THRESHOLD = 0.15


def dig(payload: dict, dotted: str):
    """Resolve ``a.b.c`` in nested dicts; ``None`` when absent."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_metric(
    baseline: dict,
    candidate: dict,
    path: str,
    direction: str,
    scale: str,
    threshold: float,
) -> dict:
    """One headline verdict: ok / regression / skipped / missing.

    The ratio is candidate/baseline; ``higher`` metrics regress when
    the ratio drops below ``1 - threshold``, ``lower`` metrics when it
    climbs above ``1 + threshold``.
    """
    entry: dict = {
        "metric": path,
        "direction": direction,
        "threshold": threshold,
    }
    candidate_scale = candidate.get("scale", "default")
    if candidate_scale != scale:
        entry["status"] = "skipped"
        entry["reason"] = (
            f"candidate scale {candidate_scale!r} != baseline "
            f"scale {scale!r}"
        )
        return entry
    base_value = dig(baseline, path)
    cand_value = dig(candidate, path)
    if not isinstance(base_value, (int, float)) or not base_value:
        entry["status"] = "skipped"
        entry["reason"] = f"baseline value unusable: {base_value!r}"
        return entry
    if not isinstance(cand_value, (int, float)):
        entry["status"] = "missing"
        entry["reason"] = f"candidate value absent: {cand_value!r}"
        return entry
    ratio = cand_value / base_value
    entry.update(
        baseline=base_value, candidate=cand_value,
        ratio=round(ratio, 4),
    )
    if direction == "higher":
        regressed = ratio < 1.0 - threshold
    else:
        regressed = ratio > 1.0 + threshold
    entry["status"] = "regression" if regressed else "ok"
    return entry


def compare_dirs(
    baseline_dir: Path | str,
    candidate_dir: Path | str,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Diff every headline; the returned dict is the CI artifact."""
    baseline_dir = Path(baseline_dir)
    candidate_dir = Path(candidate_dir)
    results = []
    for filename, path, direction, scale in HEADLINES:
        base_file = baseline_dir / filename
        cand_file = candidate_dir / filename
        entry = {"file": filename, "metric": path}
        if not base_file.exists():
            entry.update(status="skipped", reason="no baseline file")
        elif not cand_file.exists():
            entry.update(status="missing", reason="no candidate file")
        else:
            with open(base_file, encoding="utf-8") as handle:
                baseline = json.load(handle)
            with open(cand_file, encoding="utf-8") as handle:
                candidate = json.load(handle)
            entry.update(compare_metric(
                baseline, candidate, path, direction, scale, threshold
            ))
        results.append(entry)
    return {
        "threshold": threshold,
        "results": results,
        "regressions": [
            r for r in results if r["status"] == "regression"
        ],
    }


def format_report(report: dict) -> str:
    lines = []
    for entry in report["results"]:
        status = entry["status"].upper()
        line = f"[{status:<10}] {entry['file']} {entry['metric']}"
        if "ratio" in entry:
            line += (
                f" baseline={entry['baseline']:.4g}"
                f" candidate={entry['candidate']:.4g}"
                f" ratio={entry['ratio']:.3f}"
            )
        if "reason" in entry:
            line += f" ({entry['reason']})"
        lines.append(line)
    verdict = (
        f"{len(report['regressions'])} regression(s) past "
        f"{report['threshold']:.0%}"
    )
    lines.append(verdict)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff fresh benchmark JSON against the baseline"
    )
    parser.add_argument(
        "--baseline", default=str(Path(__file__).parent / "out"),
        help="directory holding the committed BENCH_*.json baseline",
    )
    parser.add_argument(
        "--candidate", required=True,
        help="directory holding freshly generated BENCH_*.json",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative regression tolerance (default 0.15)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the full diff report as JSON to this path",
    )
    args = parser.parse_args(argv)
    report = compare_dirs(
        Path(args.baseline), Path(args.candidate), args.threshold
    )
    print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if report["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
