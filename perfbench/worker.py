"""One benchmark process for one workload; ``run.py`` starts it.

Modes:
- ``setup``: time ``import seqtag`` plus the workload's parse and
  build/load, in this fresh process, and exit;
- ``run``: set up, run one warm-up repetition (reported apart), then
  repeat the timed work within a ``--seconds`` window; report the median
  tokens/s, macro-F1, this process's peak RSS and the gates;
- ``trace``: as ``run``, but alternate untraced repetitions with traced
  ones (set-up included) and report per-layer figures per repetition.

Prints one JSON object as its last line.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402


def host_facts():
    import numpy as np

    try:
        from seqtag import kernels
        numba = bool(getattr(kernels, "NUMBA_ENABLED", False))
    except ImportError:
        numba = False
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "kernels": "numba" if numba else "numpy",
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Runner:
    def __init__(self, workload, floor):
        self.wl = workload
        self.floor = floor
        self.results = []  # every RepResult, warm-up first
        self.errors = []
        self.calib = calibrate.measure()  # host speed just before the next rep

    def one_rep(self, state, with_setup=False, around=None, sample=True):
        """Run one repetition, then check its output.

        Returns (wall, scaled wall, state). ``wall`` is the timed part's
        seconds (set-up included when ``with_setup``) without the host-speed
        samples taken during it; ``scaled`` is that time on the reference
        host. Both are None when the work raised; the repetition then
        counts as failed. ``around`` is a context entered for the timed
        part only. Without ``sample`` the host speed comes from the
        calibrations before and after the repetition alone, so no sample
        lands inside a traced span.
        """
        sampler = calibrate.Sampler()
        gc.collect()  # start from a collected heap, as a fresh command would
        try:
            with around or contextlib.nullcontext(), \
                    sampler if sample else contextlib.nullcontext():
                started = time.perf_counter()
                if with_setup:
                    state = self.wl.prepare()
                self.wl.before_rep(state)
                if not with_setup:
                    started, sampler.spent = time.perf_counter(), 0.0
                out = self.wl.rep(state)
                wall = time.perf_counter() - started - sampler.spent
            self.results.append(self.wl.check(state, out))
        except Exception:  # a failing repetition is reported, not fatal
            self.errors.append(traceback.format_exc(limit=4))
            return None, None, state
        before, self.calib = self.calib, calibrate.measure()
        return wall, wall / sampler.factor(before, self.calib), state

    def outcome(self, state):
        """attempted, failed and the gate messages over all repetitions."""
        attempted = sum(r.sentences for r in self.results)
        failed = sum(r.failed for r in self.results)
        messages = [p for r in self.results for p in r.problems]
        if self.errors:
            per_rep = self.results[0].sentences if self.results else 1
            attempted += per_rep * len(self.errors)
            failed += per_rep * len(self.errors)
            messages.append(f"{len(self.errors)} repetition(s) raised:\n{self.errors[0]}")
        if not self.results:
            return max(attempted, 1), max(failed, 1), messages
        first = self.results[0]
        for r in self.results[1:]:
            if r.output != first.output:
                failed += r.sentences
                messages.append("repetitions with the same inputs gave different output")
        if not first.macro_f1 >= self.floor:
            failed += attempted - failed
            messages.append(f"macro_f1 {first.macro_f1:.4f} below floor {self.floor}")
        for gate, bad, total in self.wl.gates(state, self.results):
            attempted += total
            failed += bad
            if bad:
                messages.append(f"gate {gate}: {bad} of {total} sentences failed")
        return attempted, min(failed, attempted), messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    import workloads  # imports seqtag: part of the timed set-up

    wl = workloads.make(args.workload, args.dir, args.seed)
    state = wl.prepare()
    wl.before_rep(state)
    if args.mode == "setup":
        raw = time.perf_counter() - STARTED
        calib = calibrate.measure(repeats=15)
        print(json.dumps({"setup_s": raw * calibrate.REFERENCE_S / calib, "raw_setup_s": raw,
                          "calib_s": calib}))
        return 0

    runner = Runner(wl, workloads.F1_FLOOR[args.workload])
    _, warm_ref, state = runner.one_rep(state)
    report = {"host": host_facts()}
    if warm_ref is not None:
        warm = runner.results[-1]
        report.update(warmup_tok_s=warm.tokens / warm_ref, tokens_per_rep=warm.tokens,
                      sentences_per_rep=warm.sentences)
    if args.mode == "run":
        report.update(measure(runner, state, args.seconds))
    else:
        report.update(trace(runner, state, args.seconds))
    attempted, failed, messages = runner.outcome(state)
    report.update(attempted=attempted, failed=failed, problems=messages,
                  macro_f1=runner.results[0].macro_f1 if runner.results else 0.0,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(report))
    return 0


class Window:
    """Measuring window of ``seconds``: the first iteration always runs,
    and another starts only if one more iteration as long as the last one
    still ends inside the window."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.started = self.last = time.perf_counter()
        self.count = 0

    def another(self):
        now = time.perf_counter()
        ok = self.count == 0 or (now - self.started) + (now - self.last) <= self.seconds
        self.last = now
        self.count += 1
        return ok


def measure(runner, state, seconds):
    """Repeat the timed work for ``seconds``; tok_s is the median rate
    scaled to the reference host's speed."""
    raw, scaled = [], []
    window = Window(seconds)
    while window.another():
        wall, wall_ref, state = runner.one_rep(state)
        if wall is None:
            break
        tokens = runner.results[-1].tokens
        raw.append(tokens / wall)
        scaled.append(tokens / wall_ref)
    if not raw:
        return {"tok_s": 0.0, "tok_s_reps": [], "raw_tok_s": 0.0}
    return {"tok_s": statistics.median(scaled), "tok_s_reps": scaled,
            "raw_tok_s": statistics.median(raw)}


def trace(runner, state, seconds):
    """Alternate an untraced and a traced repetition, set-up included,
    while the measuring window allows."""
    import layers
    import spans

    traced, tables, counters, selfsums = [], [], [], []
    overheads = []  # traced minus untraced wall on the reference host
    window = Window(seconds)
    while window.another():
        _, plain_ref, _ = runner.one_rep(None, with_setup=True, sample=False)
        if plain_ref is None:
            break
        recorder = spans.Recorder()
        entries = layers.entries()
        wall, wall_ref, _ = runner.one_rep(None, with_setup=True,
                                           around=spans.Patcher(recorder, entries),
                                           sample=False)
        if wall is None:
            break
        overheads.append(wall_ref - plain_ref)
        traced.append(wall)
        tables.append(spans.summarize(recorder.spans))
        counters.append(recorder.counters)
        selfsums.append(sum(spans.self_times(recorder.spans)))
    absent = sorted({a for e in entries for a in e.absent}) if traced else []
    return {"per_layer": per_layer(tables, counters, traced, overheads, selfsums),
            "absent": absent, "traced_reps": len(traced)}


def per_layer(tables, counters, traced, overheads, selfsums):
    """Per-repetition means of every per-layer figure; call and token
    counts repeat exactly between repetitions."""
    import layers

    k = max(len(tables), 1)
    full = {}
    for name in layers.ENTRY_NAMES:
        for stat in ("calls", "busy_s", "self_s"):
            full[f"{name}.{stat}"] = sum(t.get(name, {}).get(stat, 0) for t in tables) / k
        for key in {c for cs in counters for (n, c) in cs if n == name}:
            full[f"{name}.{key}"] = sum(cs.get((name, key), 0) for cs in counters) / k
    positions = full.get("nn.layers.BiLstm.forward.positions", 0)
    real = full.get("nn.layers.BiLstm.forward.real_tokens", 0)
    fallbacks = full.get("ensemble.ensemble_corpus.fallback_tokens", 0)
    voted = full.get("ensemble.ensemble_corpus.tokens", 0)
    wall = sum(traced) / k if traced else 0.0
    full.update({
        "nn.layers.BiLstm.forward.pad_ratio": positions / real if real else 0.0,
        "ensemble.fallback_share": fallbacks / voted if voted else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_s": statistics.median(overheads) if overheads else 0.0,
        "trace.self_sum_ratio": (sum(selfsums) / k) / wall if wall else 0.0,
    })
    return full


if __name__ == "__main__":
    sys.exit(main())
