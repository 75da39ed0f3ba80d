"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The
process sets up the workload five times (a fresh import of emsync plus
input generation each time), then runs whole rounds of the workload's
operations until S seconds have passed, then checks every output.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced, and reports the per-layer metrics and the
tracing overhead; it also writes the spans to .perfbench_out/.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread: runs are steadier on a shared two-core machine, and it
# is the plain single-threaded baseline.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 5

# Speed adjustment.  This runs on shared machines whose cores slow down by
# up to a third for tens of seconds at a time, and CPU time slows down with
# them.  Before each operation the benchmark times a fixed pure-Python
# loop; each operation's CPU time is scaled by CAL_REF_S over the median of
# the five loop timings nearest to it (one timing alone is too noisy).  The
# reported times are thus those of a machine that runs the loop in exactly
# CAL_REF_S, about this machine's speed when it is not contended.
CAL_LOOPS = 10_000
CAL_REF_S = 0.0006


def calibration_sample():
    """CPU seconds of the fixed calibration loop."""
    start = time.process_time()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.process_time() - start


def speed_factors(samples, reach=2):
    """Per sample, CAL_REF_S over the median of the samples within reach."""
    return [
        CAL_REF_S / statistics.median(samples[max(0, i - reach) : i + reach + 1])
        for i in range(len(samples))
    ]


def fresh_import():
    """Import emsync (and its CLI) anew from ./src."""
    for name in [n for n in sys.modules if n == "emsync" or n.startswith("emsync.")]:
        del sys.modules[name]
    em = importlib.import_module("emsync")
    importlib.import_module("emsync.cli")
    if not os.path.abspath(em.__file__).startswith(SRC + os.sep):
        raise ImportError(f"emsync imported from {em.__file__}, not from {SRC}")
    return em


class Measurement:
    """Whole rounds of one workload: per-operation seconds and outcomes.

    Operations are timed in process CPU time, speed-adjusted (see
    CAL_REF_S).  The work is single-threaded (one BLAS thread, no I/O
    beyond reading small cached files), so on an idle machine CPU time
    equals wall time.  The run length is measured in wall time.
    """

    def __init__(self, workload, seconds, tracer=None):
        self.cpu = []  # CPU seconds per operation
        self.calibration = []  # calibration loop seconds before each operation
        self.failed = 0
        self.wall = 0.0  # summed wall time of the rounds
        self.rounds = 0
        self.first = None  # outputs of the first round, None for failures
        self.mismatched_rounds = 0
        wall = time.perf_counter()
        while True:
            outputs = []
            ops = workload.round()
            begin_wall = time.perf_counter()
            while True:
                if tracer is not None:
                    tracer.op += 1
                calibration = calibration_sample()
                start = time.process_time()
                try:
                    out, ok = next(ops)
                except StopIteration:
                    break
                self.cpu.append(time.process_time() - start)
                self.calibration.append(calibration)
                self.failed += not ok
                outputs.append(out if ok else None)
            self.wall += time.perf_counter() - begin_wall
            self.rounds += 1
            if self.first is None:
                self.first = outputs
            elif outputs != self.first:
                self.mismatched_rounds += 1
            if time.perf_counter() - wall >= seconds:
                break

        self.factors = speed_factors(self.calibration)
        self.durations = [d * f for d, f in zip(self.cpu, self.factors)]
        self.elapsed = sum(self.durations)

    @property
    def ops(self):
        return len(self.durations)

    def seconds_per_op(self):
        return self.elapsed / self.ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "emsync", "__init__.py")):
        print(f"error: no emsync sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, SRC)
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        setup_s, calibration = [], []
        for _ in range(SETUPS):
            calibration.append(calibration_sample())
            start = time.process_time()
            em = fresh_import()
            workload.setup(em, args.seed, workdir)
            setup_s.append(time.process_time() - start)
        setup_s = [s * CAL_REF_S / statistics.median(calibration) for s in setup_s]

        if args.trace:
            base = Measurement(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = Measurement(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            runs = (base, traced)
            overhead = 100.0 * (traced.seconds_per_op() / base.seconds_per_op() - 1.0)
            values = tracer.metrics(traced.ops, overhead)
            units = {name: unit for name, unit, _ in tracing.layer_metric_specs()}
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), values)
        else:
            run = Measurement(workload, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            runs = (run,)
            ms = [1000.0 * d for d in run.durations]
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "ops_per_s": {"value": run.ops / run.elapsed, "unit": "1/s"},
                "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
                "op_ms.p90": {
                    "value": statistics.quantiles(ms, n=10, method="inclusive")[8],
                    "unit": "ms",
                },
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }

        problems = workload.check(runs[0].first)
        if any(r.mismatched_rounds for r in runs) or (len(runs) == 2 and runs[1].first != runs[0].first):
            problems.append("a later round gave different outputs than the first")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: {sum(r.rounds for r in runs)} rounds, "
        f"{sum(r.ops for r in runs)} operations, {len(problems)} check failures, "
        f"CPU/wall {sum(sum(r.cpu) for r in runs) / sum(r.wall for r in runs):.3f}, "
        f"speed {statistics.median(runs[0].factors):.3f}",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
