"""Alternating benchmark pairs of two checkouts, summarised as BENCH_<label>.json.

    python3 tools/pairs.py PARENT CHANGE --label L --workload W [--workload W2]
        [--first-seed 211] [--pairs 10] [--seconds 55] [--claim W:METRIC]
        [--log runs.jsonl] [--out DIR]
    python3 tools/pairs.py --from-log runs.jsonl --label L [--claim W:METRIC] [--out DIR]

PARENT and CHANGE are two checkouts of this repository.  Pair i runs
`perfbench/run.py --workload W --seed S+i --trace 0` once in each, each in a
fresh process and from its own checkout; the side that runs first
alternates from pair to pair, parent first in pair 0.  Every finished run
is appended to the --log file as one JSON line, so a log can be summarised
again, or after an interruption, with --from-log.

The summary gives, per workload and end-to-end metric of the repository's
BENCHMARK.json (the one above this tool's directory): each side's runs,
median and quartiles (statistics.quantiles, exclusive method); the pairs
the change wins, ties counting for neither side; the change's median over
the parent's; and whether the metric stayed within its bound, that is,
whether its median got worse by no more than the bound (a share of the
parent's median).  A metric's claim holds when the change wins at least 9
of 10 pairs (the same share of other counts) and its median is better by
more than the parent's interquartile range; --claim is checked before the
first run.  Per workload it also says whether every run was correct, and
lists each run that was not by seed and side: a seed that fails on both
sides is a fault the two share, not a regression.

A fresh process's set-up time drifts from run to run, so when a workload's
setup_s median moves by more than 10% between the sides, the tool rechecks
it: the parent's perfbench/gen.py writes that workload's corpora once, from
the spec in the parent's perfbench/workloads.py at the workload's first
seed, and perfbench/setup_probe.py times importing seqtag and reading them
20 times per side, alternating, each side from its own checkout with its own
src on PYTHONPATH.  The result is kept under the workload's setup_recheck;
within_bound, claim_met and every bound still come from the pairs alone.
--from-log makes no recheck.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
CLAIM_RULE = "change wins at least 9 of 10 pairs and the median difference exceeds the parent's interquartile range"
SETUP_MOVE = 0.10  # a setup_s median that moves by more than this share is rechecked
SETUP_PROBES = 20  # alternating setup_probe.py runs per side in a recheck
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}  # as run.py sets
# prints a workload's kind and gen.py arguments, run in a checkout's perfbench directory
READ_SPEC = ("import json, sys, workloads as w; s = w.WORKLOADS[sys.argv[1]]; "
             "print(json.dumps([s.kind, s.n_train, s.n_test, w.TYPES_PER_TAG, *w.SENTENCE_LEN]))")


def run_once(checkout, workload, seed, seconds):
    """The result line of one perfbench run in checkout (its last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(checkouts, workloads, seeds, seconds, log):
    """Yield one record per run: {"workload", "seed", "pair", "side",
    "commit", "seconds", "line"}."""
    commits = {side: _commit(checkouts[side]) for side in SIDES}
    for workload in workloads:
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                record = {"workload": workload, "seed": seed, "pair": pair, "side": side,
                          "commit": commits[side], "seconds": seconds,
                          "line": run_once(checkouts[side], workload, seed, seconds)}
                if log is not None:
                    with open(log, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record) + "\n")
                yield record


def _python(checkout, *args, cwd=None):
    """Stdout of one child Python run in checkout (or cwd), its src first on PYTHONPATH."""
    src = str(Path(checkout).resolve() / "src")
    env = {**os.environ, **BLAS_THREADS,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, *map(str, args)]
    proc = subprocess.run(cmd, cwd=cwd or checkout, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def write_corpora(checkout, workload, seed, out_dir):
    """Write workload's corpora at seed into out_dir with checkout's
    perfbench/gen.py, sized by the spec in its perfbench/workloads.py;
    (the seqtag module the workload imports, [train file, test file])."""
    kind, n_train, n_test, types, min_len, max_len = json.loads(
        _python(checkout, "-c", READ_SPEC, workload, cwd=Path(checkout) / "perfbench"))
    _python(checkout, "perfbench/gen.py", out_dir, n_train, n_test, seed, types, min_len, max_len)
    module = "seqtag.tagger" if kind == "bilstm" else "seqtag.tnt"
    return module, [str(Path(out_dir) / f"{split}.conllu") for split in ("train", "test")]


def probe_once(checkout, module, files):
    """Seconds of one perfbench/setup_probe.py run in checkout."""
    return float(_python(checkout, "perfbench/setup_probe.py", module, *files))


def setup_recheck(checkouts, workload, seed):
    """setup_s measured again: SETUP_PROBES alternating setup_probe.py runs
    per side on the corpora the parent writes for workload at seed."""
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="setup-recheck-") as work:
        module, files = write_corpora(checkouts["parent"], workload, seed, work)
        for i in range(SETUP_PROBES):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(probe_once(checkouts[side], module, files))
    p, c = spread(runs["parent"]), spread(runs["change"])
    return {
        "seed": seed,
        "module": module,
        "probes": SETUP_PROBES,
        "parent": p,
        "change": c,
        "change_faster": sum(b < a for a, b in zip(runs["parent"], runs["change"])),
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
    }


def add_setup_rechecks(workloads, checkouts):
    """Put a setup_recheck beside each workload summary whose setup_s median
    moved by more than SETUP_MOVE; the summaries themselves do not change."""
    for workload, summary in workloads.items():
        ratio = summary["metrics"]["setup_s"]["change_over_parent"]
        if ratio is not None and abs(ratio - 1) > SETUP_MOVE:
            print(f"{workload}: setup_s moved x{ratio:.3f}, rechecking it with setup_probe.py", file=sys.stderr)
            summary["setup_recheck"] = setup_recheck(checkouts, workload, summary["seeds"][0])


def spread(runs):
    """{"median", "q1", "q3", "runs"} of a list of values."""
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent, change, better, bound):
    """The summary of one metric from its paired runs (pair i: parent[i], change[i])."""
    sign = 1 if better == "higher" else -1
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change, strict=True))
    iqr = p["q3"] - p["q1"]
    diff = c["median"] - p["median"]
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_wins": wins,
        "parent_iqr": iqr,
        "median_diff": diff,
        "within_bound": -sign * diff <= bound * abs(p["median"]),
        "claim_met": wins * 10 >= 9 * len(parent) and sign * diff > iqr,
    }


def summarise(records, metrics):
    """{workload: summary} of run records; metrics is BENCHMARK.json's end_to_end list.

    Only pairs with a run on both sides count."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        pairs = {}
        for r in records:
            if r["workload"] == workload:
                pairs.setdefault((r["pair"], r["seed"]), {})[r["side"]] = r["line"]
        done = sorted(key for key, sides in pairs.items() if len(sides) == 2)
        if not done:
            continue
        lines = {side: [pairs[key][side] for key in done] for side in SIDES}
        out[workload] = {
            "seeds": [seed for _, seed in done],
            "pairs": len(done),
            "all_correct": all(line["correct"] for side in SIDES for line in lines[side]),
            "incorrect": [{"seed": seed, "side": side} for pair, seed in done for side in SIDES
                          if not pairs[pair, seed][side]["correct"]],
            "failed_ops": {side: sum(line["failed"] for line in lines[side]) for side in SIDES},
            "attempted_ops": {side: sum(line["attempted"] for line in lines[side]) for side in SIDES},
            "metrics": {
                m["name"]: compare(
                    *([line["metrics"][m["name"]]["value"] for line in lines[side]] for side in SIDES),
                    m["better"], m["bound"],
                )
                for m in metrics
            },
        }
    return out


def _commit(checkout):
    """HEAD of a git checkout, or None."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    if proc.returncode:
        return None
    return proc.stdout.strip()


def _machine():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"cpu": cpu or platform.processor(), "vcpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "blas_threads": 1}


def report(label, records, metrics, claim=None):
    """The BENCH_<label>.json object."""
    seconds = "/".join(sorted({f"{r['seconds']:g}" for r in records}))
    doc = {
        "label": label,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "machine": _machine(),
        "pairs": "alternating: within each pair the side that runs first alternates, parent first in "
                 "the first pair; each side runs in a fresh process from its own checkout",
        "quartiles": "statistics.quantiles(n=4), exclusive method",
    }
    for side in SIDES:
        doc[f"{side}_commit"] = next((r["commit"] for r in records if r["side"] == side), None)
    doc["workloads"] = summarise(records, metrics)
    if claim:
        workload, metric = claim
        doc["claim"] = {"metric": metric, "workload": workload, "rule": CLAIM_RULE,
                        "met": doc["workloads"][workload]["metrics"][metric]["claim_met"]}
    return doc


def parse_claim(ap, claim, workloads, metrics):
    """(workload, metric) of a --claim value, checked before any run: the
    workload must be one that is run (or has a complete pair in the log),
    the metric an end-to-end one; ap.error otherwise."""
    workload, colon, metric = claim.partition(":")
    if not colon:
        ap.error(f"--claim {claim!r} is not WORKLOAD:METRIC")
    if workload not in workloads:
        ap.error(f"--claim workload {workload!r} is not among the workloads {workloads}")
    names = [m["name"] for m in metrics]
    if metric not in names:
        ap.error(f"--claim metric {metric!r} is not an end_to_end metric of {BENCHMARK.name}: {names}")
    return workload, metric


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?", help="checkout of the parent commit")
    ap.add_argument("change", nargs="?", help="checkout of the change")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--first-seed", type=int, default=211)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--claim", help="WORKLOAD:METRIC whose claim the summary reports")
    ap.add_argument("--log", help="append each run to this JSON-lines file")
    ap.add_argument("--from-log", help="summarise this JSON-lines file instead of running")
    ap.add_argument("--out", default=".", help="directory of BENCH_<label>.json")
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]

    if args.from_log:
        with open(args.from_log, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        workloads = list(summarise(records, metrics))  # those with a complete pair
    else:
        if not (args.parent and args.change and args.workload):
            ap.error("PARENT, CHANGE and --workload are required unless --from-log is given")
        if args.pairs < 1:
            ap.error(f"--pairs {args.pairs} runs nothing: give at least 1")
        workloads = args.workload
    claim = parse_claim(ap, args.claim, workloads, metrics) if args.claim else None
    if not args.from_log:
        checkouts = dict(zip(SIDES, map(Path, (args.parent, args.change))))
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        records = []
        for record in run_pairs(checkouts, args.workload, seeds, args.seconds, args.log):
            records.append(record)
            line = record["line"]
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
            print(f"{record['workload']} seed {record['seed']} {record['side']}: {values}", file=sys.stderr)
    doc = report(args.label, records, metrics, claim)
    if not args.from_log:
        add_setup_rechecks(doc["workloads"], checkouts)
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
