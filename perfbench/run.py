"""rodfind benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload {train,ingest,query} --seed N \\
        --seconds S --trace {0,1} [--smoke]

`--trace 0` reports the end-to-end metrics; `--trace 1` reports per-layer
self times and counts from a traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the metrics, workloads and the layer map.
"""

import os
import sys

# Pin the BLAS/OpenMP pools before numpy loads; rodfind's own --threads
# cannot, because the package imports numpy on import.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # temp files and trace logs; ignored by git
IGNORED_DIRS = {".git", ".perfbench", ".bench_build", "__pycache__", ".pytest_cache"}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}
MAX_ERRORS_SHOWN = 5


def load_rodfind():
    """Import rodfind from this checkout's source tree, never from elsewhere."""
    package = SRC / "rodfind"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rodfind sources at {package}")
    sys.path.insert(0, str(SRC))
    import rodfind

    if Path(rodfind.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported rodfind from {rodfind.__file__}, "
                         f"not from {package}")
    return rodfind


def tree_state(root):
    """(size, mtime) of every file in the working tree outside ignored dirs."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in IGNORED_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            state[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return state


def check_tree_unchanged(root, before):
    changed = sorted({path for path, _ in set(before.items()) ^ set(tree_state(root).items())})
    if changed:
        raise RuntimeError(f"the run changed the working tree: {changed[:5]}")


def machine_facts():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": THREADS, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


class Runner:
    """Runs and times operations, checks each one, and counts what failed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.errors = []

    def measure(self, seconds, instrument, alternate=False):
        """Operations, each followed by its check, for `seconds`: another one
        starts only when a typical operation would still end in time, and
        there is at least one. Each operation runs inside `instrument()`
        (checks never do); with `alternate`, only every second one does, and
        there are at least two. Returns the (bare, instrumented) operations
        that passed."""
        bare, traced, cycles = [], [], []
        minimum = 2 if alternate else 1
        started = time.perf_counter()
        while len(cycles) < minimum or (time.perf_counter() - started
                                         + statistics.median(cycles) <= seconds):
            cycle_started = time.perf_counter()
            tracing_on = not alternate or len(cycles) % 2 == 1
            self.attempted += 1
            try:
                with instrument() if tracing_on else contextlib.nullcontext():
                    op = self.workload.op()
                self.workload.check(op)
            except Exception:  # a failed check or a program error counts; go on
                self.errors.append(traceback.format_exc())
            else:
                op.data = None
                (traced if tracing_on else bare).append(op)
            cycles.append(time.perf_counter() - cycle_started)
        if not traced or (alternate and not bare):
            sys.stderr.write("".join(self.errors[-MAX_ERRORS_SHOWN:]))
            raise SystemExit("perfbench: no operation succeeded")
        return bare, traced


def items_per_s(ops):
    """Items over the operations' wall time."""
    return sum(o.items for o in ops) / sum(o.seconds for o in ops)


def e2e_metrics(setup_times, ops, tracer):
    """`items_per_s` counts each piece of the operations' work at the fastest
    of its repeats in the run (`tracing.best_of_repeats`)."""
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": (sum(o.items for o in ops)
                        / tracing.best_of_repeats(tracer.spans, tracer.keys)),
    }


def run(args, rodfind, tmp):
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](rodfind, sizes, args.seed, tmp)
    runner = Runner(workload)
    lines = []
    if not args.trace:
        setup_times = []
        while len(setup_times) < sizes.setups or sum(setup_times) < sizes.setup_seconds:
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        tracer = tracing.Tracer(keyed=True)
        _, ops = runner.measure(args.seconds, lambda: tracing.instrument(rodfind, tracer))
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in e2e_metrics(setup_times, ops, tracer).items()}
        lines.append(f"metric wall_items_per_s = {items_per_s(ops):.6g} 1/s "
                     f"(items over wall time; items_per_s takes each piece "
                     f"at its fastest)")
    else:
        setup_tracer, measure_tracer = tracing.Tracer(), tracing.Tracer()
        with tracing.instrument(rodfind, setup_tracer):
            workload.setup()
        ops, traced = runner.measure(
            args.seconds, lambda: tracing.instrument(rodfind, measure_tracer),
            alternate=True)
        layers = tracing.per_layer_metrics(setup_tracer, measure_tracer, len(traced))
        rate = {"untraced": items_per_s(ops), "traced": items_per_s(traced)}
        layers["trace.overhead_ratio"] = 1.0 - rate["traced"] / rate["untraced"]
        lines.append(f"trace overhead: wall_items_per_s untraced {rate['untraced']:.6g}, "
                     f"traced {rate['traced']:.6g}")
        metrics = {name: (value, tracing.PER_LAYER_UNITS[name])
                   for name, value in layers.items()}
        SCRATCH.joinpath("traces").mkdir(parents=True, exist_ok=True)
        log = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        with open(log, "w", encoding="utf-8") as stream:
            setup_tracer.write(stream, "setup")
            measure_tracer.write(stream, "measure")
        lines.append(f"spans written to {log.relative_to(ROOT)}")
    for name, value, unit in workload.report(ops):
        lines.append(f"metric {name} = {value:.6g} {unit}")
    lines.append(f"corpus_sha256 {workload.digest}")
    return runner, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    rodfind = load_rodfind()
    before = tree_state(ROOT)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        runner, metrics, lines = run(args, rodfind, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    runner.attempted += 1
    try:
        check_tree_unchanged(ROOT, before)
    except RuntimeError:
        runner.errors.append(traceback.format_exc())

    facts = machine_facts()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for line in lines:
        print(line)
    failed = len(runner.errors)
    print(f"metric error_rate = {failed / runner.attempted:.6g} "
          f"(failed {failed} of {runner.attempted})")
    for error in runner.errors[:MAX_ERRORS_SHOWN]:
        sys.stderr.write(error)
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
