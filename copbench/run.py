#!/usr/bin/env python3
"""Benchmark of copcone over fixed, seeded corpora.

    python3 copbench/run.py --workload cop-certify --seed 1 --seconds 16 --trace 0

Workloads: cop-certify, cop-refute, cp-pairs, cli (see README.md).  One
process, one operation at a time, BLAS pinned to one thread.  A run builds
its corpus from --seed, warms up, then makes a fixed number of timed passes
over the corpus, max(3, round(seconds / PASS_S)), so every run with the same
--seconds times the same operations in the same mix; the clock never cuts a
run short.  Every output is checked.  Times are scaled by the host-speed
gauge of speed.py; corpus_s sums each item's median over the passes and
op_p50_ms is the median of those item medians.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the library's
public functions and prints the per-layer metrics instead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Details go
to copbench/out/.
"""

import os

# Pinned before numpy loads; the cli subprocesses inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
from speed import Speed, gauge_s  # noqa: E402

# Wall seconds of one timed pass, gauge readings included, on a 2-core x86-64
# sandbox.  They only set the number of passes for a given --seconds.
PASS_S = {"cop-certify": 4.0, "cop-refute": 1.6, "cp-pairs": 0.55, "cli": 3.75}
SETUP_PROBES = 5  # set-ups timed per run; setup_s is their median
START_PROBES = 5  # bare and importing interpreters timed for cli.start_ms / cli.import_ms


def import_program():
    """Import copcone from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import copcone
    except ImportError as exc:
        sys.exit(f"copbench: cannot import copcone from {SRC}: {exc}")
    if Path(copcone.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"copbench: copcone was imported from {copcone.__file__}, not {SRC}")
    return copcone


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class SubprocessCli:
    """Runs `python -m copcone` once per call and keeps the largest child RSS."""

    def __init__(self):
        self.env = child_env()
        self.peak_kb = 0

    def __call__(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "copcone", *argv], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the child and reads its own RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out


def in_process_cli(cc):
    """Runs cli.main in this process with stdout captured (traced runs)."""

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cc.cli.main(list(argv))
        return code, buf.getvalue().encode("utf-8")

    return run


def setup(workload, seed, cc, workdir, run_cli):
    """Build the corpus and warm up: one call of each operation kind, on its
    first (smallest) item."""
    items = corpus.build(workload, seed, cc, str(workdir.relative_to(ROOT)), run_cli)
    first = {}
    for item in items:
        if item.known_fault is None:
            first.setdefault(item.kind, item)
    for item in first.values():
        item.check(item.run())
    return items


def measure(items, passes):
    """Timed passes over the corpus; checks run outside the timed region.
    Returns each item's scaled and raw times, the failed count and the
    wrong outputs."""
    times = [[] for _ in items]
    raw = [[] for _ in items]
    failed = 0
    wrong = []
    speed = Speed()
    gc.disable()
    try:
        for _ in range(passes):
            for k, item in [(k, item) for k, item in enumerate(items) for _ in range(item.reps)]:
                before = speed.read()
                t0 = time.perf_counter()
                try:
                    out = item.run()
                except Exception as exc:  # counted as a failed operation, never hidden
                    failed += 1
                    if not (item.known_fault and item.known_fault in str(exc)):
                        print(f"copbench: {item.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                dt = time.perf_counter() - t0
                after = speed.read()
                try:
                    item.check(out)
                except corpus.Undecided as exc:
                    failed += 1
                    print(f"copbench: {item.name}: {exc}", file=sys.stderr)
                    continue
                except Exception as exc:
                    wrong.append(f"{item.name}: {type(exc).__name__}: {exc}")
                    continue
                times[k].append(Speed.normalize(dt, before, after))
                raw[k].append(dt)
            gc.collect()
    finally:
        gc.enable()
    return times, raw, failed, wrong


def probe_setup(workload, seed) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process to its first timed
    operation (interpreter start, imports, corpus and warm-up), scaled by
    the host-speed gauge, and the raw figure."""
    before = gauge_s()
    t0 = time.monotonic_ns()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--probe"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    seconds = (int(proc.stdout.split()[-1]) - t0) / 1e9
    return Speed.normalize(seconds, before, gauge_s()), seconds


def interpreter_start_ms():
    """Median wall time of a bare interpreter, and of one importing copcone
    minus that."""
    env = child_env()
    bare, loaded = [], []
    for _ in range(START_PROBES):
        for code, into in (("pass", bare), ("import copcone", loaded)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            into.append(time.perf_counter() - t0)
    start = statistics.median(bare)
    return start * 1e3, (statistics.median(loaded) - start) * 1e3


def summarize(items, times):
    """Each item's median over the passes; their sum (s) and median (ms)."""
    per_item = {item.name: statistics.median(t) for item, t in zip(items, times) if t}
    values = list(per_item.values())
    return per_item, sum(values), statistics.median(values) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # cli items name their files relative to the checkout
    # One core for this process and every child it starts, so that the
    # speed gauge reads the core the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cc = import_program()
    tag = f"{args.workload}-seed{args.seed}"

    if args.probe:
        workdir = OUT / "work" / f"{tag}-probe{os.getpid()}"
        setup(args.workload, args.seed, cc, workdir, SubprocessCli())
        print(time.monotonic_ns(), flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = OUT / "work" / tag
    passes = max(3, round(args.seconds / PASS_S[args.workload]))
    traced = args.trace == 1
    if traced:
        import copcone.cli  # noqa: F401  (the tracer wraps cli.main and io)
    runner = in_process_cli(cc) if traced else SubprocessCli()
    items = setup(args.workload, args.seed, cc, workdir, runner)

    tr = tracing.Tracer()
    if traced:
        tr.install()
    try:
        times, raw, failed, wrong = measure(items, passes)
    finally:
        tr.uninstall()
    per_item, corpus_s, op_p50_ms = summarize(items, times)

    if traced:
        missing = tr.missing(args.workload)
        if missing:
            print(f"copbench: wrapped functions never fired: {missing}", file=sys.stderr)
            return 1
        metrics = tr.metrics(passes)
        start_ms, import_ms = interpreter_start_ms()
        metrics["cli.start_ms"] = (start_ms, "ms")
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["cli.main_ms"] = metrics.pop("cli.main_ms")
    else:
        if args.workload == "cli":
            rss_kb = runner.peak_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "corpus_s": (corpus_s, "s"),
            "op_p50_ms": (op_p50_ms, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not wrong,
        "attempted": passes * sum(item.reps for item in items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, passes=passes, items=len(items),
                  corpus_s=corpus_s, raw_corpus_s=summarize(items, raw)[1], item_median_s=per_item,
                  wrong=wrong)
    if not traced:
        detail["setup_samples_s"] = setups
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(tr.dump()) + "\n")
    for line in wrong:
        print(f"copbench: wrong output: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
