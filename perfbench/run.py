#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (and writes every span to ``.perfbench_work/traces/``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  The program under test is imported
from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("search", "serve")
#: BLAS runs single-threaded in the benchmark and in the daemon it
#: spawns: the program's matrices are small, and on a 2-vCPU host a
#: second BLAS thread made step times bimodal from run to run
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args, workdir: pathlib.Path):
    if args.workload == "serve":
        from perfbench.serve import serve_workload

        return serve_workload(args.seed, args.seconds, bool(args.trace), workdir, ROOT)
    from perfbench.searches import search_workload

    return search_workload(args.seed, args.seconds, bool(args.trace))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    source = outcome.layers if args.trace else outcome.metrics
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for definition in defs:
        name = definition["name"]
        if name not in source and not args.trace:
            print(f"perfbench: {args.workload} produced no {name}", file=sys.stderr)
            return 1
        # A layer the workload does not exercise reads 0.
        metrics[name] = {"value": float(source.get(name, 0.0)), "unit": definition["unit"]}

    if args.trace:
        traces = work / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-{args.seed}.json"
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "runs": [tracer.to_dict() for tracer in outcome.tracers],
                    **outcome.trace_extra,
                },
                handle,
            )
        outcome.report.append(f"spans written to {path.relative_to(ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in outcome.report:
        print(line)
    for name, check_ok in outcome.checks:
        print(f"check {'ok  ' if check_ok else 'FAIL'} {name}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
