"""Workloads of the uctseries benchmark: sizes, seeded inputs, operations, checks.

Every workload runs the same thirteen operations, one per end-to-end
metric; the workload only sets the input sizes.  The operations a workload
exists for run on its large inputs, the others on small inputs where a CLI
command costs little more than interpreter start-up and `import uctseries`.
So each workload reports every metric, and an optimisation of one path
shows on the workload built for that path and not on the others.

Library calls go through module attributes (`estimators.r_log2prob`, not a
name imported by value), so the traced run's wrappers intercept them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from uctseries import cli, coding, estimators, realvalued, testing
from uctseries.seqmodel import Alphabet, MultiSample, SymbolSeq

BINARY = Alphabet.of_size(2)
ALPHA = 0.05
QUERY = "0123"
DOMAIN = (-1.0, 1.0)
DENSITY_DEPTH = 8
PARTITION_DEPTH = 8
# An in-process sample repeats its call until this much time has passed,
# so calls of a few milliseconds are not timed one by one.
MIN_SAMPLE_S = 0.05
# A command still running after this long is killed and counted as failed.
CLI_TIMEOUT_S = 60
UNIFORM_BINARY = "alphabet 2\norder 0\n0.5 0.5\n"
IID_4ARY = "alphabet 4\norder 0\n0.4 0.3 0.2 0.1\n"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload."""

    chain: int               # binary order-1 chain: estimate, test-independence, r_log2prob
    multi_samples: int       # 4-ary order-2 chain, blank-line separated samples ...
    multi_length: int        # ... of this length each: estimate --query
    reals: int               # sign-process reals: density CLI
    seq: int                 # binary order-1 chain: predict, compress, decompress
    code: int                # its prefix for the in-process coder round trip
    seq_reals: int           # sign-process reals: sequential DensityEstimator
    mc_trials: int           # montecarlo partition-si trials
    short_trials: int        # identity + independence trials per call
    trial_length: int        # symbols per identity / independence trial
    partition_trials: int    # partition_meta_test trials per call
    partition_length: int    # reals per partition trial (and montecarlo --length)
    side_pairs: int          # side-information predict (traced run only)
    history: int             # event_probability history (traced run only)


SIZES = {
    "batch-long": Sizes(
        chain=1_000_000, multi_samples=100, multi_length=5000, reals=100_000,
        seq=1000, code=250, seq_reals=250, mc_trials=4, short_trials=20,
        trial_length=256, partition_trials=1, partition_length=1000,
        side_pairs=10_000, history=1000,
    ),
    "sequential-code": Sizes(
        chain=10_000, multi_samples=10, multi_length=2000, reals=1000,
        seq=5000, code=250, seq_reals=250, mc_trials=40, short_trials=20,
        trial_length=256, partition_trials=1, partition_length=1000,
        side_pairs=10_000, history=1000,
    ),
}

# Tiny inputs for the benchmark's own tests.
TINY = Sizes(
    chain=300, multi_samples=2, multi_length=100, reals=200, seq=120, code=120,
    seq_reals=40, mc_trials=2, short_trials=4, trial_length=64,
    partition_trials=1, partition_length=200, side_pairs=50, history=40,
)


# ---------------------------------------------------------------------------
# Inputs


def _digits(symbols: np.ndarray) -> bytes:
    return (symbols.astype(np.uint8) + ord("0")).tobytes()


def _reals_text(values: np.ndarray) -> str:
    return "\n".join(map(repr, values.tolist())) + "\n"


class Inputs:
    """Inputs of one workload, generated from the seed and written to `work`.

    Only the library's own samplers and numpy are used, with the default
    digit labels.  The same seed gives the same arrays and byte-identical
    files.
    """

    def __init__(self, sizes: Sizes, seed: int, work: Path):
        self.sizes = sizes
        self.seed = seed
        self.work = work
        s_chain, s_multi, s_table, s_side = np.random.SeedSequence(seed).spawn(4)
        sticky = estimators.MarkovSource(BINARY, 1, [[0.8, 0.2], [0.2, 0.8]])
        n = max(sizes.chain, sizes.seq, sizes.side_pairs)
        full = sticky.sample(n, np.random.default_rng(s_chain)).symbols
        self.chain = SymbolSeq(BINARY, full[: sizes.chain])
        self.seq = SymbolSeq(BINARY, full[: sizes.seq])
        self.code = SymbolSeq(BINARY, full[: sizes.code])
        table = np.random.default_rng(s_table).dirichlet(np.ones(4), size=16)
        order2 = estimators.MarkovSource(Alphabet.of_size(4), 2, table)
        rng = np.random.default_rng(s_multi)
        self.multi = MultiSample(
            [order2.sample(sizes.multi_length, rng) for _ in range(sizes.multi_samples)]
        )
        values = realvalued.sign_process_generate(
            0.4, max(sizes.reals, sizes.seq_reals, sizes.history),
            seed=int(np.random.SeedSequence(seed).generate_state(1)[0]),
        )
        self.reals = values[: sizes.reals]
        self.seq_reals = values[: sizes.seq_reals]
        self.history = values[: sizes.history]
        self.side_x = full[: sizes.side_pairs]
        self.side_y = sticky.sample(sizes.side_pairs + 1,
                                    np.random.default_rng(s_side)).symbols
        self.seq_bytes = _digits(self.seq.symbols) + b"\n"

        self.files = {
            "chain": _digits(self.chain.symbols) + b"\n",
            "multi": b"\n\n".join(_digits(s.symbols) for s in self.multi.samples) + b"\n",
            "reals": _reals_text(self.reals).encode(),
            "seq": self.seq_bytes,
            "side_x": _digits(self.side_x) + b"\n",
            "side_y": _digits(self.side_y) + b"\n",
        }
        for name, data in self.files.items():
            self.path(name).write_bytes(data)

    def path(self, name: str) -> Path:
        return self.work / f"{name}.txt"

    @cached_property
    def ref(self) -> "Reference":
        return Reference(self)


class Reference:
    """In-process values the outputs are checked against, computed on demand
    after the timed loop (never inside a timed region)."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    @cached_property
    def chain_log2prob(self) -> float:
        return estimators.r_log2prob(self.inputs.chain)

    @cached_property
    def multi_log2prob(self) -> float:
        return estimators.r_log2prob(self.inputs.multi)

    @cached_property
    def query_log2prob(self) -> float:
        word = [int(c) for c in QUERY]
        extended = self.inputs.multi.extended(word)
        return estimators.r_log2prob(extended) - self.multi_log2prob

    @cached_property
    def seq_log2prob(self) -> float:
        return estimators.r_log2prob(self.inputs.seq)

    @cached_property
    def code_log2prob(self) -> float:
        return estimators.r_log2prob(self.inputs.code)

    @cached_property
    def reals_log2density(self) -> float:
        return realvalued.density_log2(self.inputs.reals, *DOMAIN, DENSITY_DEPTH)

    @cached_property
    def seq_reals_log2density(self) -> float:
        return realvalued.density_log2(self.inputs.seq_reals, *DOMAIN, DENSITY_DEPTH)


def agree(a: float, b: float) -> bool:
    """Relative agreement to 1e-9."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# Operations


@dataclass
class CliResult:
    code: int | None
    report: dict | None
    out_bytes: bytes | None = None


class CliOp:
    """One `uctseries` command; its metric is seconds per command.

    Timed as a `python -m uctseries` subprocess, start-up and import
    included, as users run it.  The traced run calls `cli.main` in-process
    with the same arguments.
    """

    unit = "s"

    def __init__(self, name: str, argv: list[str], check, out_file: Path | None = None):
        self.name = name
        self.argv = argv
        self.check = check
        self.out_file = out_file

    def _result(self, code, stdout: str) -> CliResult:
        try:
            report = json.loads(stdout) if stdout.strip() else None
        except ValueError:
            report = None
        out = self.out_file.read_bytes() if self.out_file and self.out_file.exists() else None
        return CliResult(code, report, out)

    def timed(self, env: dict) -> tuple[float, list[CliResult]]:
        if self.out_file is not None:
            self.out_file.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "uctseries", *self.argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, stdout = None, ""
        elapsed = time.perf_counter() - start
        return elapsed, [self._result(code, stdout)]

    def once(self) -> list[CliResult]:
        if self.out_file is not None:
            self.out_file.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.argv))
        return [self._result(code, out.getvalue())]


class InprocOp:
    """An in-process call into a module's public functions; its metric is
    units of work per second."""

    def __init__(self, name: str, unit: str, units: int, call, check):
        self.name = name
        self.unit = unit
        self.units = units     # units of work done by one call
        self.call = call       # returns the list of outputs of one call
        self.check = check

    def timed(self, env: dict) -> tuple[float, list]:
        outputs = []
        calls = 0
        start = time.perf_counter()
        while True:
            outputs += self.call()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SAMPLE_S:
                return calls * self.units / elapsed, outputs

    def once(self) -> list:
        return self.call()


# -- checks: each returns None when the output is correct, else a message


def _cli_failed(res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}"
    if res.report is None:
        return "no JSON report"
    return None


def _verdict_problem(report: dict) -> str | None:
    """A test verdict must agree with statistic > threshold (also for sub-tests)."""
    for sub in [report] + list(report.get("sub_reports", [])):
        want = "reject" if sub["statistic_bits"] > sub["threshold_bits"] else "accept"
        if sub["verdict"] != want:
            return _mismatch(f"{sub['test']} verdict", sub["verdict"], want)
    return None


def check_estimate(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    if not agree(res.report["log2_prob"], ref.chain_log2prob):
        return _mismatch("estimate log2_prob", res.report["log2_prob"], ref.chain_log2prob)
    return None


def check_estimate_multi(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    if not agree(res.report["log2_prob"], ref.multi_log2prob):
        return _mismatch("estimate log2_prob", res.report["log2_prob"], ref.multi_log2prob)
    query = res.report.get("query", {}).get("log2_prob")
    if query is None or not agree(query, ref.query_log2prob):
        return _mismatch("query log2_prob", query, ref.query_log2prob)
    return None


def check_test_report(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    return _verdict_problem(res.report)


def check_density(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    if not agree(res.report["log2_density"], ref.reals_log2density):
        return _mismatch("density log2_density", res.report["log2_density"],
                         ref.reals_log2density)
    return None


def check_predict(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    total = sum(res.report["conditionals"].values())
    if abs(total - 1.0) > 1e-9:
        return _mismatch("sum of conditionals", total, 1.0)
    return None


def check_compress(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    payload, ideal = res.report["payload_bits"], res.report["ideal_bits"]
    if payload > math.ceil(ideal) + 2:
        return f"payload_bits {payload} > ceil(ideal_bits {ideal}) + 2"
    if not agree(ideal, -ref.seq_log2prob):
        return _mismatch("ideal_bits", ideal, -ref.seq_log2prob)
    return None


def check_decompress(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    if res.out_bytes != ref.inputs.seq_bytes:
        return "decompressed file differs from the compressed input"
    return None


def check_montecarlo(res: CliResult, ref: Reference):
    if (bad := _cli_failed(res)) is not None:
        return bad
    rep = res.report
    bound = rep["alpha"] + 3 * math.sqrt(rep["alpha"] * (1 - rep["alpha"]) / rep["trials"])
    if rep["rejection_rate"] > bound:
        return f"rejection rate {rep['rejection_rate']} above alpha + 3 se = {bound}"
    return None


def check_batch(value: float, ref: Reference):
    if value != ref.chain_log2prob:
        return _mismatch("r_log2prob", value, ref.chain_log2prob)
    return None


def check_code(out: tuple, ref: Reference):
    decoded, nbits, model_log2prob = out
    if not np.array_equal(decoded.symbols, ref.inputs.code.symbols):
        return "arithmetic_decode did not return the encoded symbols"
    if not agree(model_log2prob, ref.code_log2prob):
        return _mismatch("sequential MixtureEstimator log2prob vs r_log2prob",
                         model_log2prob, ref.code_log2prob)
    if nbits > math.ceil(-model_log2prob) + 2:
        return f"payload {nbits} bits > ceil(ideal {-model_log2prob}) + 2"
    return None


def check_density_values(value: float, ref: Reference):
    if not agree(value, ref.seq_reals_log2density):
        return _mismatch("DensityEstimator vs density_log2", value, ref.seq_reals_log2density)
    return None


def check_trial(report, ref: Reference):
    return _verdict_problem(report.to_dict())


def check_event(value: float, ref: Reference):
    if not 0.0 <= value <= 1.0 + 1e-9:
        return f"event probability {value} outside [0, 1]"
    return None


# -- in-process calls


def _trial_rng(seed: int, kind: int, i: int):
    return np.random.default_rng([seed, kind, i])


def short_trials(sizes: Sizes, seed: int) -> list:
    """Identity trials against a uniform binary null, alternating with
    order-1 serial-independence trials on a 4-ary i.i.d. source."""
    reports = []
    for i in range(sizes.short_trials):
        rng = _trial_rng(seed, 1, i)
        provider = coding.ideal_r_provider()
        if i % 2 == 0:
            null = estimators.MarkovSource.from_text(UNIFORM_BINARY)
            x = null.sample(sizes.trial_length, rng)
            reports.append(testing.identity_test(x, null, ALPHA, provider))
        else:
            source = estimators.MarkovSource.from_text(IID_4ARY)
            x = source.sample(sizes.trial_length, rng)
            reports.append(testing.serial_independence_test(x, 1, ALPHA, provider))
    return reports


def partition_trials(sizes: Sizes, seed: int) -> list:
    """partition_meta_test(kind="si") on uniform i.i.d. reals in [0, 1)."""
    reports = []
    for i in range(sizes.partition_trials):
        data = _trial_rng(seed, 2, i).random(sizes.partition_length)
        reports.append(testing.partition_meta_test(
            data, ALPHA, kind="si", max_depth=PARTITION_DEPTH, domain=(0.0, 1.0)))
    return reports


def code_round_trip(inputs: Inputs) -> list:
    model = estimators.MixtureEstimator(BINARY)
    payload, nbits = coding.arithmetic_encode(inputs.code, model)
    decoded = coding.arithmetic_decode(payload, len(inputs.code),
                                       estimators.MixtureEstimator(BINARY), BINARY)
    return [(decoded, nbits, model.log2prob)]


def density_sequential(inputs: Inputs) -> list:
    est = realvalued.DensityEstimator(*DOMAIN, DENSITY_DEPTH).consume(inputs.seq_reals)
    return [est.log2_density]


# ---------------------------------------------------------------------------


def operations(inputs: Inputs) -> list:
    """The timed operations: the CLI commands in the order each round runs
    them, then the in-process calls."""
    s = inputs.sizes
    p = lambda name: str(inputs.path(name))
    container = inputs.work / "seq.uct"
    decoded = inputs.work / "seq.out"
    return [
        CliOp("estimate_s", ["estimate", "--in", p("chain")], check_estimate),
        CliOp("estimate_multi_s", ["estimate", "--in", p("multi"), "--query", QUERY],
              check_estimate_multi),
        CliOp("independence_s",
              ["test-independence", "--in", p("chain"), "--order", "1"],
              check_test_report),
        CliOp("density_s", ["density", "--in", p("reals"), "--domain=-1:1",
                            "--depth", str(DENSITY_DEPTH)], check_density),
        CliOp("predict_s", ["predict", "--in", p("seq")], check_predict),
        CliOp("compress_s", ["compress", "--in", p("seq"), "--out", str(container)],
              check_compress),
        CliOp("decompress_s", ["decompress", "--in", str(container), "--out", str(decoded)],
              check_decompress, out_file=decoded),
        CliOp("montecarlo_s",
              ["montecarlo", "--test", "partition-si", "--length", str(s.partition_length),
               "--depth", str(PARTITION_DEPTH), "--trials", str(s.mc_trials),
               "--alpha", str(ALPHA), "--seed", str(inputs.seed)],
              check_montecarlo),
        InprocOp("batch_symbols_per_s", "sym/s", s.chain,
                 lambda: [estimators.r_log2prob(inputs.chain)], check_batch),
        InprocOp("code_symbols_per_s", "sym/s", s.code,
                 lambda: code_round_trip(inputs), check_code),
        InprocOp("density_values_per_s", "val/s", s.seq_reals,
                 lambda: density_sequential(inputs), check_density_values),
        InprocOp("short_trials_per_s", "trials/s", s.short_trials,
                 lambda: short_trials(s, inputs.seed), check_trial),
        InprocOp("partition_trials_per_s", "trials/s", s.partition_trials,
                 lambda: partition_trials(s, inputs.seed), check_trial),
    ]


def traced_extras(inputs: Inputs) -> list:
    """Operations only the traced run adds, for layers the timed ones miss."""
    intervals = [(-1.0, -0.5), (0.0, 0.25)]
    return [
        CliOp("side_info", ["predict", "--in", str(inputs.path("side_x")),
                            "--in2", str(inputs.path("side_y"))], check_predict),
        InprocOp("event_probability", "1", 1,
                 lambda: [realvalued.event_probability(intervals, inputs.history, *DOMAIN)],
                 check_event),
    ]


def warm_up(inputs: Inputs) -> None:
    """Run each in-process path once on a few symbols, so lazy imports and
    first-call costs land in set-up, not in the first timed sample."""
    tiny = SymbolSeq(BINARY, inputs.seq.symbols[:32])
    estimators.r_log2prob(tiny)
    coding.arithmetic_encode(tiny, estimators.MixtureEstimator(BINARY))
    realvalued.DensityEstimator(*DOMAIN, DENSITY_DEPTH).consume(inputs.seq_reals[:4])
    testing.partition_meta_test(np.linspace(0.0, 0.99, 64), ALPHA, max_depth=2)
