"""The repository benchmark: one workload, one seed, one line of JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suggest-miss --seed 1 \\
        --seconds 8 --trace 0

``--workload all`` runs every workload in turn, each in its own
process, prints each one's result line and exits non-zero if any
failed.

Workloads: ``suggest-miss``, ``suggest-sharded`` and ``update-mix``
(why each exists, and why ``http-zipf`` was dropped: ``workloads.py``).
A run

1. generates the bench corpus and the seeded query and update streams
   (``inputs.py``); the program sees only the XML text, the queries
   and the update records;
2. pins itself to one CPU, sets up twice from the XML text to
   ready-to-serve, each stage bracketed by speed probes, and keeps the
   last set-up;
3. warms up, then drives the workload's fixed operation stream in a
   closed loop, scaling each sample by the speed probes around it
   (``timing.py``; the noise this removes is described there);
4. checks the answers (the correctness gates listed in
   ``workloads.py``);
5. prints the end-to-end metrics as the last line of standard output.

Everything a run writes stays in the checkout, under ``.perfbench/``:
its work directory (removed at exit; the filesystem it sits on is
recorded with the run) and its reports.

``--seconds`` sizes the operation stream: the number of operations is
the workload's nominal rate times ``--seconds`` (never fewer than the
1000 queries a p99 with ten samples beyond it needs), so one seed
always sends the same operations and the engine's counts repeat.

``--trace 1`` is the traced run: after the untimed set-up and the
untraced pass it replays the same operations on a fresh service with
span-recording wrappers around each layer's entry points
(``tracing.py``) and prints the per-layer metrics instead, including
``residual_ms`` and ``trace.overhead_ratio``.  Its spans are written to
``.perfbench/reports/``.  End-to-end metrics always come from the
untraced pass.

The last line is ``{"correct", "attempted", "failed", "metrics"}``;
a JSON line of diagnostics (raw wall values, set-up stages, probe
statistics, run identity) precedes it and the full report is written
to ``.perfbench/reports/``.  Any failed gate prints ``"correct":
false`` and exits 1.  Without the program's sources (``src/``) the run
exits 2 and prints no result.  The benchmark's own arithmetic is
checked by ``selftest.py`` at the start of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("suggest-miss", "suggest-sharded", "update-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hash_seed(seed: int) -> str:
    """PYTHONHASHSEED for a run seed: one seed, one iteration order."""
    return str(seed % 4294967296)


def pin_one_cpu() -> None:
    """Run on one CPU, so the speed probe measures the CPU doing the work.

    The VM's vCPUs drift in speed independently of each other; a thread
    the scheduler moves between them would run at a speed its probes
    did not see.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})


def run_all(args) -> int:
    """Every workload in turn; their result lines, worst exit code."""
    worst = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        print(json.dumps({"workload": name, "exit": done.returncode,
                          "result": json.loads(lines[-1]) if lines else None}))
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    pin_one_cpu()
    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed)),
        )
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    import selftest

    if not selftest.passes():
        return 1
    import inputs
    import tracing
    import workloads

    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    reports = os.path.join(OUT, "reports")
    os.makedirs(reports, exist_ok=True)
    workdir = tempfile.mkdtemp(
        prefix=f"{args.workload}-s{args.seed}-", dir=os.path.join(OUT, "work")
    )
    stem = os.path.join(reports, f"{args.workload}-s{args.seed}")
    workload = None
    try:
        corpus = inputs.make_corpus()
        workload = workloads.WORKLOADS[args.workload](
            corpus, args.seed, args.seconds, workdir
        )
        # The streams exist; drop the generator's tree.  Kept alive, its
        # ~250k objects would make every full garbage collection during
        # the timed pass pause for tens of ms, noise the program's own
        # heap does not cause.
        corpus.document = None
        identity = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pythonhashseed": os.environ["PYTHONHASHSEED"],
            "corpus": corpus.identity,
            "streams": workload.streams(),
            "machine": inputs.machine_identity(ROOT, SRC, workdir),
        }
        setups = workload.setup_all()
        main_pass = workload.timed_pass(workload.target)
        traced = workload.traced_pass() if args.trace else None
        problems = workload.check(main_pass, traced)
        metrics, diagnostics = workload.end_to_end(setups, main_pass)
        if args.trace:
            values = workload.layers(setups, main_pass, traced)
            units = workloads.LAYER_METRICS
            tracing.write_spans(traced.spans, stem + ".spans.jsonl")
        else:
            values, units = metrics, workloads.END_TO_END
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for outcome, _ in main_pass.results if outcome != "ok")
    result = {
        "correct": not problems,
        "attempted": len(main_pass.results),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    report = dict(identity, problems=problems, end_to_end=metrics,
                  diagnostics=diagnostics, result=result)
    with open(f"{stem}-t{args.trace}.json", "w") as handle:
        json.dump(report, handle, indent=1)
    for problem in problems:
        print(f"perfbench: gate failed: {problem}", file=sys.stderr)
    print(json.dumps({"identity": identity, "end_to_end": metrics,
                      "diagnostics": diagnostics}))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
