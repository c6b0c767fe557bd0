"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints a detail record (environment, per-op
medians and tails, failures) and, as the last line, the result JSON with
keys correct, attempted, failed and metrics.  Exits 2 without a result when
submine's sources are not next to this directory.
"""

import os
import sys

# BLAS reads its thread cap when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import bench
    except ImportError as e:
        print(f"error: cannot load submine from src/: {e}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"env": out["env"], "detail": out["detail"]}
    results = bench.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": out["result"]}, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
