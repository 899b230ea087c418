"""Spans around calls into uctseries, and the per-layer numbers derived from them.

The wrappers are installed from the benchmark, not from the library.
Library names are imported by value (`estimators.r_log2prob` is also
`cli.r_log2prob`, `coding.r_log2prob`, `realvalued.r_log2prob` and
`uctseries.r_log2prob`), so every binding in the uctseries modules that
holds a wrapped function is replaced, and methods are replaced on their
class.  `Wrappers.restore` puts every binding back, so an untraced run
measures the unmodified program.

Spans are kept in memory with integer nanosecond times, so self times add
up exactly to the wall time of the operation that contains them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from uctseries import cli, coding, estimators, realvalued, seqmodel, testing


@dataclass(slots=True)
class Span:
    name: str
    start: int              # perf_counter_ns
    end: int
    parent: int | None      # index of the enclosing span
    op: int                 # id of the benchmark operation the span belongs to
    count: int = 0          # work count taken from the call's inputs or outputs


class Tracer:
    """Collects spans; one stack, because the benchmark is single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._op))
        self._stack.append(index)
        return index

    def close(self, index: int, count: int = 0) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self.spans[index].count = count
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its spans share an id."""
        self._op += 1
        index = self.open("op." + name)
        try:
            yield
        finally:
            self.close(index)


# ---------------------------------------------------------------------------
# Wrappers


def _windows(args, kwargs, result) -> int:
    """Windows counted by kt_log2prob(x, m): sum over samples of max(0, len - m)."""
    x = args[0] if args else kwargs["x"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    _, samples = seqmodel.as_sample_arrays(x)
    return sum(max(0, arr.size - m) for arr in samples)


def _length(args, kwargs, result) -> int:
    return len(result)


def _subtests(args, kwargs, result) -> int:
    return len(result.sub_reports)


# (span name, owner, attribute, counter); a span's count is 1 without a counter.
TARGETS = [
    ("cli.main", cli, "main", None),
    ("cli.montecarlo_pool", cli, "_run_pool", None),
    ("seqmodel.from_labels", seqmodel.SymbolSeq, "from_labels", _length),
    ("seqmodel.pair_counts", seqmodel, "pair_counts", None),
    ("estimators.r_log2prob", estimators, "r_log2prob", None),
    ("estimators.kt_log2prob", estimators, "kt_log2prob", _windows),
    ("estimators.log2_sum", estimators, "log2_sum", None),
    ("estimators.mixture_step", estimators.MixtureEstimator, "append", None),
    ("estimators.mixture_cond", estimators.MixtureEstimator, "conditional_probs", None),
    ("estimators.side_info", estimators, "side_info_cond_log2probs", None),
    ("estimators.source_sample", estimators.MarkovSource, "sample", None),
    ("estimators.source_log2prob", estimators.MarkovSource, "log2prob", None),
    ("estimators.source_from_text", estimators.MarkovSource, "from_text", None),
    ("coding.encode", coding, "arithmetic_encode", None),
    ("coding.decode", coding, "arithmetic_decode", None),
    ("coding.codelength", coding.CodelengthProvider, "codelength", None),
    ("testing.identity", testing, "identity_test", None),
    ("testing.independence", testing, "serial_independence_test", None),
    ("testing.empirical_entropy", testing, "empirical_entropy", None),
    ("testing.partition", testing, "partition_meta_test", _subtests),
    ("realvalued.cell_index", realvalued.Partition, "cell_index", _length),
    ("realvalued.quantize", realvalued, "quantize", None),
    ("realvalued.density_log2", realvalued, "density_log2", None),
    ("realvalued.density_append", realvalued.DensityEstimator, "append", None),
    ("realvalued.cond_densities", realvalued.DensityEstimator,
     "conditional_cell_log2densities", None),
    ("realvalued.event_probability", realvalued, "event_probability", None),
]


def _wrap(fn, name: str, tracer: Tracer, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index, counter(args, kwargs, result) if counter else 1)
        return result

    return wrapper


def uctseries_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "uctseries" or name.startswith("uctseries."))]


class Wrappers:
    """Replaces every binding of the TARGETS with a span-recording wrapper."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Wrappers":
        modules = uctseries_modules()
        for name, owner, attr, counter in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(raw.__func__, name, self.tracer, counter))
                else:
                    new = _wrap(raw, name, self.tracer, counter)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(original, name, self.tracer, counter)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, binding, original))
                        setattr(module, binding, wrapper)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Wrappers":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def op_self_sums(spans: list[Span], own: list[int]) -> dict[int, tuple[int, int]]:
    """Per operation: (sum of self times of its spans, wall time of its root span)."""
    sums: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for span, s in zip(spans, own):
        sums[span.op][0] += s
        if span.parent is None:
            sums[span.op][1] += span.end - span.start
    return {op: (a, b) for op, (a, b) in sums.items()}


class Totals:
    """Per span name: total duration, calls, counts and self time.

    No wrapped function calls itself, directly or through another, so
    durations of one name never overlap.
    """

    def __init__(self, spans: list[Span]):
        self.incl = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.own = defaultdict(int)
        for span, own in zip(spans, self_times(spans)):
            self.incl[span.name] += span.end - span.start
            self.calls[span.name] += 1
            self.counts[span.name] += span.count
            self.own[span.name] += own

    def s(self, name: str) -> float:
        return self.incl[name] / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.own[n] for n in names) / 1e9


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    return "bits" if metric.endswith("_bits") else "count"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from its spans alone."""
    t = Totals(spans)
    tests = ("testing.identity", "testing.independence", "testing.partition")
    return {
        "cli.self_s": t.self_s("cli.main"),
        "seqmodel.from_labels_s": t.s("seqmodel.from_labels"),
        "seqmodel.from_labels_tokens": t.counts["seqmodel.from_labels"],
        "seqmodel.pair_counts_s": t.s("seqmodel.pair_counts"),
        "estimators.r_log2prob_s": t.s("estimators.r_log2prob"),
        "estimators.r_log2prob_calls": t.calls["estimators.r_log2prob"],
        "estimators.kt_log2prob_s": t.s("estimators.kt_log2prob"),
        "estimators.kt_log2prob_calls": t.calls["estimators.kt_log2prob"],
        "estimators.windows": t.counts["estimators.kt_log2prob"],
        "estimators.log2_sum_s": t.s("estimators.log2_sum"),
        "estimators.mixture_step_s": t.s("estimators.mixture_step"),
        "estimators.mixture_steps": t.calls["estimators.mixture_step"],
        "estimators.mixture_cond_s": t.s("estimators.mixture_cond"),
        "estimators.mixture_cond_calls": t.calls["estimators.mixture_cond"],
        "estimators.side_info_s": t.s("estimators.side_info"),
        "estimators.source_sample_s": t.s("estimators.source_sample"),
        "estimators.source_log2prob_s": t.s("estimators.source_log2prob"),
        "estimators.source_from_text_s": t.s("estimators.source_from_text"),
        "coding.encode_s": t.s("coding.encode"),
        "coding.decode_s": t.s("coding.decode"),
        "coding.coder_self_s": t.self_s("coding.encode", "coding.decode"),
        "coding.codelength_s": t.s("coding.codelength"),
        "coding.codelength_calls": t.calls["coding.codelength"],
        "testing.identity_s": t.s("testing.identity"),
        "testing.identity_calls": t.calls["testing.identity"],
        "testing.independence_s": t.s("testing.independence"),
        "testing.empirical_entropy_s": t.s("testing.empirical_entropy"),
        "testing.partition_s": t.s("testing.partition"),
        "testing.partition_subtests": t.counts["testing.partition"],
        "testing.self_s": t.self_s(*tests),
        "realvalued.cell_index_s": t.s("realvalued.cell_index"),
        "realvalued.cell_index_calls": t.calls["realvalued.cell_index"],
        "realvalued.cell_index_values": t.counts["realvalued.cell_index"],
        "realvalued.quantize_s": t.s("realvalued.quantize"),
        "realvalued.density_log2_s": t.s("realvalued.density_log2"),
        "realvalued.density_append_s": t.s("realvalued.density_append"),
        "realvalued.density_appends": t.calls["realvalued.density_append"],
        "realvalued.cond_densities_s": t.s("realvalued.cond_densities"),
        "realvalued.event_probability_s": t.s("realvalued.event_probability"),
    }
