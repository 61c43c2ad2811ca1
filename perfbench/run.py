"""Benchmark of the seqtag taggers: end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--smoke]

With --workload, one workload runs in this process and the last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  Without --workload, every workload runs in its own fresh
process.  BENCHMARK.json lists bilstm-wc-freqbin and tnt-200k; bilstm-w is
run by hand (see README.md).  --smoke shrinks every workload to a few
seconds, all checks kept.  Details of each run go to perfbench/results/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("bilstm-wc-freqbin", "bilstm-w", "tnt-200k")

# One BLAS thread (at most nproc): the per-sentence matrix-vector products
# are too small to gain from more, and on 2 cores a second thread made
# bilstm-w training slower (767 vs 986 tok/s).
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "seqtag" / "__init__.py").is_file():
        print(f"perfbench: no seqtag package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd + (["--smoke"] if args.smoke else []), timeout=900).returncode
        return status

    sys.path.insert(0, str(SRC))
    import workloads

    line, details = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(results / f"{tag}.json", "w") as fh:
        json.dump({"result": line, "details": details}, fh, indent=1)
    for msg in details["errors"] + details["failures"]:
        print(f"perfbench: {args.workload}: {msg}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
