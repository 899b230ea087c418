"""Benchmark of uctseries: one workload, end-to-end or traced.

    python3 bench/run.py --workload batch-long --seed 1 --seconds 58 --trace 0

Run from anywhere; the package is taken from `src/` next to this
directory.  The workload's inputs are generated from --seed and written to
a temporary directory in the checkout, removed at the end.

--trace 0 times every operation of the workload in rounds until --seconds
have passed and reports the end-to-end metrics: CLI commands as
`python -m uctseries` subprocesses, in-process calls as work per second.
--trace 1 runs the same operations in-process (CLI commands through
`cli.main`), alternating an untraced pass with a pass whose calls into
uctseries are wrapped in spans, and reports per-layer numbers.

Every output is checked; an output that fails a check is counted in
`failed` and never aborts the run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it is a record of the machine, the seed, the sample counts and the
first failed checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402
import uctseries  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# The in-process import, the first part of set-up.
IMPORT_S = time.perf_counter() - _STARTED

WORKLOADS = tuple(workloads.SIZES)
# Input generation and warm-up are repeated this many times; setup_s takes the median.
SETUP_REPEATS = 3
# In-process sampling time after each CLI command.
INPROC_SLOT_S = 0.25
IMPORT_REPEATS = 3


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail(values) -> dict | None:
    """Highest of these percentiles with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None
    return {"percentile": best,
            "value": statistics.quantiles(values, n=1000, method="inclusive")[int(best * 10) - 1]}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            # the pool size `montecarlo` takes
            "montecarlo_workers": min(os.cpu_count() or 1, 8)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Checker:
    """Counts outputs and the ones that fail their operation's check."""

    def __init__(self):
        self.pending: list[tuple[object, object]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op, outputs) -> None:
        self.pending += [(op, out) for out in outputs]

    def run(self, ref) -> None:
        for op, out in self.pending:
            self.attempted += 1
            try:
                problem = op.check(out, ref)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed output: {exc!r}"
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{op.name}: {problem}")
        self.pending = []


def _rss_mb() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, children


def setup(seed: int, work: Path, sizes):
    """Generate inputs and warm up, several times, keeping the last inputs."""
    reps = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workloads.Inputs(sizes, seed, work)
        workloads.warm_up(inputs)
        warm = workloads.CliOp("warm-up", ["estimate", "--in", str(inputs.path("seq"))], None)
        warm.timed(_child_env())
        reps.append(time.perf_counter() - t)
    return inputs, IMPORT_S + _median(reps)


def measure(ops, seconds: float, checker: Checker) -> dict[str, list[float]]:
    """Run the CLI commands until `seconds` have passed, with in-process
    samples in between.

    The first round runs every command once.  After it, the next command
    is the one with the fewest samples so far, on a tie the one timed
    least in total, among the commands whose previous duration fits before
    `seconds`; the loop ends when none fits.  After each command,
    in-process samples are taken for INPROC_SLOT_S, each from the
    in-process operation with the fewest samples so far.  Every operation
    thus gets about as many samples as the others of its kind, spread over
    the whole run and not bunched where the machine happened to be fast or
    slow; with equal noise per sample, that keeps the largest spread of
    their medians smallest.
    """
    env = _child_env()
    commands = [op for op in ops if isinstance(op, workloads.CliOp)]
    inproc = [op for op in ops if not isinstance(op, workloads.CliOp)]
    spent = {op.name: 0.0 for op in ops}
    samples = {op.name: [] for op in ops}
    last: dict[str, float] = {}

    def sample(op) -> None:
        began = time.perf_counter()
        value, outputs = op.timed(env)
        samples[op.name].append(value)
        checker.add(op, outputs)
        last[op.name] = time.perf_counter() - began
        spent[op.name] += last[op.name]

    def inproc_slot() -> None:
        slot = time.perf_counter()
        while time.perf_counter() - slot < INPROC_SLOT_S:
            sample(min(inproc, key=lambda o: (len(samples[o.name]), spent[o.name])))

    start = time.perf_counter()
    for op in commands:
        sample(op)
        inproc_slot()
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [op for op in commands if last[op.name] <= left]
        if not fits:
            return samples
        sample(min(fits, key=lambda o: (len(samples[o.name]), spent[o.name])))
        inproc_slot()


def end_to_end(inputs, seconds: float, setup_s: float) -> tuple[dict, dict, Checker]:
    ops = workloads.operations(inputs)
    checker = Checker()
    samples = measure(ops, seconds, checker)
    checker.run(inputs.ref)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    stats = {}
    for op in ops:
        values = samples[op.name]
        metrics[op.name] = {"value": _median(values), "unit": op.unit}
        stats[op.name] = {"samples": len(values), "values": values, "tail": _tail(values)}
    own, children = _rss_mb()
    metrics["peak_rss_mb"] = {"value": max(own, children), "unit": "MB"}
    record = {"samples": stats, "rss_mb": {"self": own, "children": children}}
    return metrics, record, checker


def _import_s() -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import uctseries"], env=_child_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return _median(times)


def _output_counts(op_outputs: list) -> dict[str, float]:
    """Counts read from one pass's outputs: coder bits and test rejections."""
    payload = ideal = 0.0
    rejections = 0
    for op, out in op_outputs:
        if isinstance(out, workloads.CliResult):
            rep = out.report or {}
            if op.name == "compress_s":
                payload += rep.get("payload_bits", 0)
                ideal += rep.get("ideal_bits", 0.0)
            elif op.name == "independence_s":
                rejections += rep.get("verdict") == "reject"
            elif op.name == "montecarlo_s":
                rejections += round(rep.get("rejection_rate", 0.0) * rep.get("trials", 0))
        elif hasattr(out, "rejected"):
            rejections += out.rejected
    return {"coding.payload_bits": payload, "coding.ideal_bits": ideal,
            "coding.overhead_bits": payload - ideal, "testing.rejections": rejections}


def traced(inputs, seconds: float) -> tuple[dict, dict, Checker]:
    ops = workloads.operations(inputs) + workloads.traced_extras(inputs)
    checker = Checker()
    passes: list[dict[str, float]] = []
    overheads = []
    broken_ops = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            op.once()
        untraced_s = time.perf_counter() - pass_start

        tracer = spans.Tracer()
        outputs = []
        t = time.perf_counter()
        with spans.Wrappers(tracer):
            for op in ops:
                with tracer.operation(op.name):
                    outputs += [(op, out) for out in op.once()]
        traced_s = time.perf_counter() - t
        overheads.append(traced_s - untraced_s)
        for op, out in outputs:
            checker.add(op, [out])
        own = spans.self_times(tracer.spans)
        broken_ops += sum(a != b for a, b in spans.op_self_sums(tracer.spans, own).values())
        passes.append({**spans.layer_metrics(tracer.spans), **_output_counts(outputs)})
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    checker.run(inputs.ref)
    if broken_ops:
        checker.failed += 1
        checker.problems.append(f"self times do not add up to wall time in {broken_ops} operations")

    values = {name: _median([p[name] for p in passes]) for name in passes[0]}
    values["cli.import_s"] = _import_s()
    values["trace.overhead_s"] = _median(overheads)
    metrics = {name: {"value": v, "unit": spans.unit(name)} for name, v in values.items()}
    return metrics, {"passes": len(passes)}, checker


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    sizes = sizes or workloads.SIZES[workload]
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        inputs, setup_s = setup(seed, work, sizes)
        if trace:
            metrics, record, checker = traced(inputs, seconds)
        else:
            metrics, record, checker = end_to_end(inputs, seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "sizes": dataclasses.asdict(sizes), **record,
              "failed_ratio": checker.failed / max(checker.attempted, 1),
              "problems": checker.problems}
    result = {"correct": checker.failed == 0, "attempted": max(checker.attempted, 1),
              "failed": checker.failed, "metrics": metrics}
    return result, record


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, exit through the `finally` that removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if Path(uctseries.__file__).resolve().parent != SRC / "uctseries":
        sys.stderr.write(f"imported uctseries from {uctseries.__file__}, not {SRC}\n")
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         sizes=sizes)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
