"""wrinet benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads: train-wr-inception, infer-wr-inception, detect-kitti (see
``workloads.py`` and ``README.md``).

``--trace 0`` sets the workload up several times (``setup_s`` is their
median), runs closed-loop ops for S seconds, then one untimed op under
``tracemalloc``, and prints the end-to-end metrics. ``--trace 1`` sets up
once, runs S/2 seconds untraced and S/2 seconds with the span wrappers
installed, runs the one-shot probes, and prints the per-layer metrics. Both
validate every op's output. The last line of standard output is the JSON
result; spans of a traced run are written to
``.perfbench_out/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
MIN_TIMED_OPS = 3
MIB = 1024 * 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-wr-inception", "infer-wr-inception", "detect-kitti"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "seed": seed}


class Tally:
    """Ops attempted and failed (raised, non-finite, or failed their check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, around=contextlib.nullcontext):
        """Run one op inside ``around()``, then check it outside that block;
        returns (op seconds, output or None if the op failed)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with around():
                out = workload.op()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        if not workload.check(out):
            self.failed += 1
            print(f"perfbench: op {self.attempted} failed its output check", file=sys.stderr)
            return seconds, None
        return seconds, out


def timed_loop(workload, tally: Tally, seconds: float, around=contextlib.nullcontext):
    times, completed = [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_TIMED_OPS:
        dt, out = tally.run(workload, around)
        times.append(dt)
        completed += out is not None
    return times, completed


def set_up(cls, seed: int, workdir: str, reference, reps: int, tally: Tally):
    """Build the workload ``reps`` times, each ending with its warm-up op;
    returns the last one, the set-up seconds, and whether the warm-up
    outputs were bit-identical across builds."""
    times, prints, workload = [], [], None
    for _ in range(reps):
        workload = None  # release the previous build before timing the next
        t0 = time.perf_counter()
        workload = cls(seed, workdir, reference)
        workload.setup()
        build = time.perf_counter() - t0
        warm_up, out = tally.run(workload)
        times.append(build + warm_up)
        prints.append(None if out is None else workload.fingerprint(out))
    return workload, times, all(p == prints[0] for p in prints)


@contextlib.contextmanager
def traced_memory(peaks: list):
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
    finally:
        tracemalloc.stop()


def load_reference(workload: str, seed: int):
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path) as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wrinet" / "__init__.py").is_file():
        print(f"perfbench: wrinet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    reference = load_reference(args.workload, args.seed)
    env = environment(args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    checks = {}
    try:
        reps = 1 if args.trace else SETUP_REPS
        wl, setup_times, checks["setup_reproducible"] = set_up(
            cls, args.seed, str(workdir), reference, reps, tally)
        if args.trace:
            metrics, ops, trace_checks = traced_run(wl, tally, args, str(workdir), env)
            checks.update(trace_checks)
        else:
            times, completed = timed_loop(wl, tally, args.seconds)
            ops = len(times)
            peaks = []
            tally.run(wl, lambda: traced_memory(peaks))
            metrics = {
                "img_per_s": (completed * cls.images_per_op / sum(times), "img/s"),
                "op_p50_s": (statistics.median(times), "s"),
                "peak_traced_mib": (peaks[0] if peaks else 0.0, "MiB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
        if hasattr(wl, "evaluate"):
            report = wl.evaluate()
            checks["evaluate_detections"] = 0.0 <= report.mean_ap <= 1.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and all(checks.values())
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"timed_ops={ops} reference={'recorded' if reference else 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<46} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed}/{tally.attempted} ops)")
    print(f"  checks {json.dumps(checks)}")
    print(f"env {json.dumps(env)}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(wl, tally: Tally, args, workdir: str, env: dict):
    """Untraced then traced halves of the run, the MAC-counter check, and
    the one-shot probes; returns (per-layer metrics, timed ops, checks)."""
    import probes
    import tracing
    from wrinet import analysis

    base_times, _ = timed_loop(wl, tally, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_times, _ = timed_loop(wl, tally, args.seconds / 2,
                                     around=lambda: tracer.span("op"))
    expected = analysis.count_macs(wl.graph, wl.input_hw)[0] * wl.images_per_op
    forward_macs = tracer.forward_macs()
    checks = {"forward_macs_equal_count_macs":
              bool(forward_macs) and all(m == expected for m in forward_macs)}

    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(probes.one_shot_metrics(args.seed, workdir))
    metrics["analysis.macs_per_image"] = (wl.macs_per_image(), "MAC")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(base_times) - 1.0, "fraction")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"env": env, "fields": ["name", "parent", "start", "end", "macs", "bytes"],
                   "spans": tracer.to_records()}, fh)
    return metrics, len(base_times) + len(traced_times), checks


if __name__ == "__main__":
    sys.exit(main())
