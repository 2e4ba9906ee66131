"""morsim benchmark: one command, three closed-loop workloads.

Run from the root of a morsim checkout:

    python3 perfbench/run.py --workload presets|scan|finite --seed N --seconds S --trace 0|1

One process, one thread, one client: the next pass starts only when the
previous one has finished and its outputs have been checked. After one
untimed warm-up pass, passes repeat for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics. Timings are wall times
corrected for machine speed (see ``speed.py``); the raw wall medians are
printed beside them.

* ``points_per_s``: probe detunings per pass over ``pass_s``;
* ``pass_s``: median time of one pass (the only percentile until a run
  has at least 100 passes);
* ``setup_s``: median, over fresh child processes, of the time to import
  morsim and build and validate the workload's configs;
* ``peak_rss_mb``: peak resident memory of this process, which runs only
  the one workload.

``failed_frac`` (passes that raised or failed their check, over passes
attempted) is printed in the summary and carried by the result's
``failed`` and ``attempted`` fields; it is 0 when the program is correct.

``--trace 1`` alternates untraced and traced passes, then runs one pass
under tracemalloc, and reports the per-layer metrics of ``tracing.METRICS``
including the tracing overhead (raw wall times, traced against untraced).
The spans go to ``.perfbench/trace-<workload>-seed<N>.json`` in the checkout.

The last line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import REFERENCE_S, reference
from tracing import METRICS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 60
# BLAS and OpenMP pools are pinned to one thread before numpy is first
# imported (by the workload set-up), here and in the set-up children, so the
# numbers measure the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Times one set-up in a fresh interpreter: the clock starts before morsim
# (and so numpy) is imported and stops when the configs are validated.
# The reference kernel runs after it, once numpy is loaded.
_SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
from pathlib import Path
import speed, statistics, workloads
start = time.perf_counter()
workloads.WORKLOADS[{name!r}](Path({work!r}))
setup = time.perf_counter() - start
print(repr(setup), repr(statistics.median(speed.reference() for _ in range(3))))
"""


def _setup_seconds(name: str, work: Path) -> tuple[float, float]:
    """(wall, corrected) seconds of one set-up in a fresh process."""
    code = _SETUP_CHILD.format(bench=str(BENCH_DIR), src=str(SRC), name=name, work=str(work))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}):\n{done.stderr}")
    wall, ref = map(float, done.stdout.split())
    return wall, wall * REFERENCE_S / ref


class Loop:
    """Runs passes one after another and counts the ones that fail."""

    def __init__(self, state):
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.checked = None

    def one(self, context=None, correct=False) -> tuple[float, float] | None:
        """Run and check one pass.

        Returns (wall, corrected) seconds, or None if the pass failed. With
        ``correct`` the reference kernel runs before and after each step, and
        each step's time is scaled by ``REFERENCE_S`` over the mean of the two.
        """
        self.attempted += 1
        wall = corrected = 0.0
        results = []
        try:
            self.state.prepare()
            with context or nullcontext():
                before = reference() if correct else 0.0
                for step in self.state.steps():
                    start = time.perf_counter()
                    results.append(step())
                    elapsed = time.perf_counter() - start
                    wall += elapsed
                    if correct:
                        after = reference()
                        corrected += elapsed * REFERENCE_S * 2 / (before + after)
                        before = after
            self.checked = self.state.check(results)
        except Exception:  # a failed pass is counted, and the run goes on
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return None
        return wall, corrected


def _timed_loop(seconds: float, passes) -> None:
    """Run ``passes`` (callables) round by round until ``seconds`` are up."""
    deadline = time.perf_counter() + seconds
    while True:
        for one in passes:
            one()
        if time.perf_counter() >= deadline:
            return


def _environment() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "not loaded"),
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def _result(loop: Loop, metrics: dict) -> str:
    return json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def _traced_run(args, workload, loop: Loop, env: dict):
    tracer = Tracer()
    traced, untraced = [], []

    def plain():
        if (t := loop.one()) is not None:
            untraced.append(t[0])

    def with_trace():
        if (t := loop.one(tracer.traced_pass())) is not None:
            traced.append(t[0])

    _timed_loop(args.seconds, [plain, with_trace])
    loop.one(tracer.heap_pass())
    if not traced or not untraced or loop.checked is None:
        return None
    values = tracer.metrics(workload.POINTS, loop.checked.rows, loop.checked.bytes,
                            traced, untraced)
    trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "env": env, "metrics": values, **tracer.dump()}),
                          encoding="utf-8")
    print(f"trace overhead {values['trace.overhead']:+.1%}: traced pass_s "
          f"{values['trace.pass_s']:.4f} s (n={len(traced)}) vs untraced "
          f"{values['trace.untraced_pass_s']:.4f} s (n={len(untraced)}), wall")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    for name, unit in METRICS:
        print(f"  {name:44s} {values[name]:.6g} {unit}")
    return {name: (values[name], unit) for name, unit in METRICS}


def _plain_run(args, workload, loop: Loop, setup: list[tuple[float, float]]):
    times = []

    def timed():
        if (t := loop.one(correct=True)) is not None:
            times.append(t)

    _timed_loop(args.seconds, [timed])
    if not times:
        return None
    pass_s = statistics.median(c for _, c in times)
    pass_wall = statistics.median(w for w, _ in times)
    setup_s = statistics.median(c for _, c in setup)
    setup_wall = statistics.median(w for w, _ in setup)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n, m = len(times), len(setup)
    print(f"size {workload.POINTS} points/pass, {loop.checked.rows} rows/pass, "
          f"{loop.checked.bytes} bytes/pass")
    print(f"  points_per_s {workload.POINTS / pass_s:12.1f} 1/s  n={n} passes "
          f"(wall: {workload.POINTS / pass_wall:.1f})")
    print(f"  pass_s       {pass_s:12.4f} s    n={n} passes, median (wall: {pass_wall:.4f})")
    print(f"  setup_s      {setup_s:12.4f} s    n={m} fresh processes, median "
          f"(wall: {setup_wall:.4f})")
    print(f"  peak_rss_mb  {peak_mb:12.1f} MB   n=1 process")
    return {
        "points_per_s": (workload.POINTS / pass_s, "1/s"),
        "pass_s": (pass_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def run(args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    workload.make_inputs(args.seed, work)
    setup = [_setup_seconds(args.workload, work) for _ in range(SETUP_REPEATS)]

    sys.path.insert(1, str(SRC))
    loop = Loop(workload(work))
    import morsim
    if Path(morsim.__file__).resolve().parent != SRC / "morsim":
        print(f"error: imported morsim from {morsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = _environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client, 1 thread")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    loop.one()  # warm-up: checked, not timed
    if args.trace:
        metrics = _traced_run(args, workload, loop, env)
    else:
        metrics = _plain_run(args, workload, loop, setup)
    print(f"  failed_frac  {loop.failed / loop.attempted:12.4f} 1    "
          f"{loop.failed} of {loop.attempted} passes, warm-up included")
    if metrics is None:
        print("error: no pass succeeded", file=sys.stderr)
        return 1
    print(f"check {loop.checked.note}")
    print(_result(loop, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morsim" / "__init__.py").is_file():
        print(f"error: no morsim sources at {SRC}; run from a morsim checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"), TMPDIR=str(work))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
