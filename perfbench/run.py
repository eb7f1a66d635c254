"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The line before it is the per-run report (input checksum,
generator lateness, cold-account share, the program's own latency report,
...).  A traced run also writes every span to ``.bench_out/``.
``--inputs-only`` generates the inputs, prints their checksum and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

# One process, one event loop, no extra threads: BLAS runs on the calling
# thread.  Set before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_warm", "serve_cold_burst", "t1_retrain")


def load_workload(name: str):
    if name == "serve_warm":
        import serve_warm as module
    elif name == "serve_cold_burst":
        import cold_burst as module
    else:
        import t1_retrain as module
    return module


def declared_metrics(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs-only", action="store_true",
                        help="generate the inputs, print their checksum and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: the program's sources are not under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    module = load_workload(args.workload)
    if args.inputs_only:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "input_checksum": module.Inputs(args.seed, args.seconds).checksum}))
        return 0

    from tracing import NullTracer, Tracer

    section = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(section)
    tracer = Tracer().install() if args.trace else NullTracer()
    try:
        result = module.run(args.seed, args.seconds, tracer)
    finally:
        if args.trace:
            tracer.uninstall()

    values = result.metrics
    if args.trace:
        values = tracer.metrics(int(result.report.get("offline_units", 1)))
        result.report["trace_accounting"] = [
            {"pass": row["pass"], "wall_s": round(row["wall_s"], 4),
             "unexplained_s": round(row["unexplained_s"], 4)}
            for row in tracer.accounting()
        ]
        result.report["traced_end_to_end"] = result.metrics
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed})
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"report": result.report}, default=str))
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    try:
        sys.exit(main())
    except Exception:  # the run failed: report it and exit non-zero, no result line
        traceback.print_exc()
        sys.exit(1)
