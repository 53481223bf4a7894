"""Run the Frost benchmark and print every metric with its unit.

From the root of a checkout::

    python3 perfbench/run.py --workload batch_match --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload stream_ingest --seed 1 --out results/
    python3 perfbench/run.py compare results/base.json results/head.json

``--trace 0`` measures the end-to-end metrics with the program as
shipped; ``--trace 1`` wraps the layers' entry points and reports the
per-layer metrics instead.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
lines before it name every metric with its unit, the workload's own
headline figures and the run's context.  ``--out DIR`` also writes the
full result document, which ``compare`` reads: it refuses two results
whose contexts differ and names the field.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, speed  # noqa: E402

WORKLOADS = ("batch_match", "stream_ingest", "explore_serve")


def _compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    documents = [json.loads(path.read_text()) for path in (args.base, args.head)]
    try:
        rows = harness.compare_results(*documents, harness.load_spec())
    except harness.ContextMismatch as mismatch:
        print(mismatch, file=sys.stderr)
        return 3
    regressed = False
    for row in rows:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        regressed |= row["regressed"]
        print(
            f"{row['name']:<16} {row['base']:>12.6g} -> {row['head']:>12.6g} "
            f"{row['unit']:<6} {row['change']:+8.2%} (bound {row['bound']:.0%}) "
            f"{verdict}"
        )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the full result documents")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        harness.require_program()
        spec = harness.load_spec()
    except (harness.BenchmarkError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    cpu = speed.pin_to_one_cpu()
    summary = None
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        workload = importlib.import_module(f"perfbench.{name}")
        outcome = workload.run(args.seed, args.seconds, trace)
        outcome.context.update(
            harness.base_context(name, args.seed, args.seconds, trace)
        )
        outcome.context["pinned_cpu"] = cpu
        document = harness.result_document(outcome, spec, trace)
        print(f"== {name}")
        print(harness.render_table(document))
        for problem in outcome.problems:
            print(f"failed: {problem}", file=sys.stderr)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            target = args.out / f"{name}-seed{args.seed}-trace{args.trace}.json"
            target.write_text(json.dumps(document, indent=2, sort_keys=True))
        summary = harness.summary_line(document)
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
