#!/usr/bin/env python3
"""seqtag end-to-end benchmark.

    python3 perfbench/run.py --workload train_crf --seed 1 --seconds 20 --trace 0

Run from the root of a seqtag checkout; the program is imported from
``src/``. One run:
1. writes the workload's seeded inputs (``gen.py``, its own process) under
   ``.perfbench_work/`` and checks they are byte-identical to the inputs
   this process generates for the same seed;
2. with ``--trace 0``: times set-up in several fresh processes (median
   ``setup_s``), then runs the workload in one more process that reports
   tokens/s, macro-F1, its own peak RSS and the output gates;
   with ``--trace 1``: runs the workload with traced repetitions and
   reports the per-layer figures instead;
3. prints host facts and one line per metric, then, as the last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

Load is closed-loop from a single process and thread: every child runs
with BLAS limited to one thread. The exit code is 0 when every gate
passed, 1 when a gate failed (the result is still printed), 2 when the
benchmark could not run (no result printed).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402

SETUP_PROBES = 7
TOTAL_BUDGET_S = 170  # a run must end within 180 s
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(args, deadline):
    env = dict(os.environ, **SINGLE_THREAD)
    budget = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} ran past the {TOTAL_BUDGET_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


def check_inputs(workload, seed, directory):
    """Input files written by the generator process must equal, byte for
    byte, what this process generates for the same seed."""
    bad = []
    for name, text in gen.build_texts(workload, seed).items():
        with open(os.path.join(directory, name), "rb") as fh:
            if fh.read() != text.encode("utf-8"):
                bad.append(name)
    return bad


def run(args):
    deadline = time.monotonic() + TOTAL_BUDGET_S
    if not os.path.isdir(os.path.join(ROOT, "src", "seqtag")):
        raise BenchError(f"no seqtag sources under {os.path.join(ROOT, 'src')}")
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        child([os.path.join(HERE, "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", work], deadline)
        mismatched = check_inputs(args.workload, args.seed, work)
        worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
                  "--dir", work, "--seed", str(args.seed)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(last_json(child(worker + ["--mode", "setup"], deadline)))
        mode = "trace" if args.trace else "run"
        report = last_json(child(worker + ["--mode", mode, "--seconds", str(args.seconds)],
                                 deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if mismatched:
        report["problems"].append(f"inputs differ between processes: {mismatched}")
        report["failed"] = report["attempted"]
    return report, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, setups = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"host {json.dumps(report['host'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if "warmup_tok_s" in report:
        print(f"input per repetition: {report['sentences_per_rep']} sentences, "
              f"{report['tokens_per_rep']} tokens")
        print(f"warmup_tok_s {report['warmup_tok_s']:.1f} tokens/s (not in tok_s)")
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics = layers.traced_metrics(report)
        for line in layers.table(report):
            print(line)
        if report["absent"]:
            print("absent " + " ".join(report["absent"]))
    else:
        reps = report["tok_s_reps"]
        print(f"tok_s reps {len(reps)}: " + " ".join(f"{r:.1f}" for r in reps))
        print(f"raw_tok_s {report['raw_tok_s']} tokens/s (median, not scaled)")
        metrics = {
            "tok_s": {"value": report["tok_s"], "unit": "tokens/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
            "macro_f1": {"value": report["macro_f1"], "unit": "ratio"},
        }
        print("setup_s probes (scaled/raw): " + " ".join(
            f"{s['setup_s']:.4f}/{s['raw_setup_s']:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"fail_ratio {failed / attempted if attempted else 1.0} ratio "
          f"({failed} of {attempted} sentences)")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")
    correct = failed == 0 and not report["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
