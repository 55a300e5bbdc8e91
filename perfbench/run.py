"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build-join --seed 1 --seconds 15 \
        --trace 0

Run from the repository root.  The program is imported from ``src/``
of the same checkout.  The human-readable report goes to standard
output first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build-join", "serve-mix", "serve-durable")

#: Per-layer metrics a workload does not exercise; they read 0 there.
NOT_EXERCISED = {
    "build-join": {
        "geometry.arena_build_s", "io.save_tree_s", "io.load_tree_s",
        "join.pbsm_ms_p50", "join.resume_ms_p50", "serve.execute_ms_p50",
        "serve.self_ms_p50", "serve.admit_us_p50", "serve.token_ms_p50",
        "serve.transport_ms_p50", "serve.response_kb_per_join",
        "serve.durable.journal_ms_p50", "serve.durable.fsyncs_per_join",
        "serve.durable.bytes_per_join", "serve.idempotent_hit_ms_p50"},
    "serve-mix": set(),
    "serve-durable": set(),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    from perfbench import build_join, serving
    from perfbench.common import envelope

    out_dir = Path("perfbench") / "out"
    scratch = out_dir / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "build-join":
            outcome = build_join.run(args.seed, args.seconds, trace)
        else:
            outcome = serving.run(args.workload, args.seed, args.seconds,
                                  trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in outcome.metrics:
            if trace and name in NOT_EXERCISED[args.workload]:
                outcome.put(name, 0.0, 0)
            else:
                raise RuntimeError(f"{args.workload} did not measure "
                                   f"{name}")
        metrics[name] = {"value": outcome.metrics[name], "unit": m["unit"]}

    env = envelope()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("envelope " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"operations attempted {outcome.attempted}  "
          f"failed {outcome.failed}")
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    for name, doc in metrics.items():
        n = outcome.samples.get(name)
        note = f"  (n={n})" if n is not None else ""
        print(f"  {name:34s} {doc['value']:14.6g} {doc['unit']}{note}")
    if outcome.spans is not None:
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        outcome.spans.write(path)
        print(f"spans {len(outcome.spans.spans)} written to {path}")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
