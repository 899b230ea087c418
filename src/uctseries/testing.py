"""Empirical entropy and the compression-based hypothesis tests.

Both finite-alphabet tests compare a codelength against a reference bit
count and reject when the code wins by more than log2(1/alpha) bits: the
identity test references -log2 of a fully specified null, the serial
independence test references the order-m empirical entropy.  Ties accept.
The partition scheme lifts either test to real-valued data by quantizing
through a sequence of partitions, spending level alpha * w_i on the i-th.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coding import CodelengthProvider, ideal_r_provider
from .estimators import (
    DEFAULT_MAX_EXPLICIT_ORDER,
    MarkovSource,
    order_weight,
)
from .realvalued import (
    DEFAULT_MAX_DEPTH,
    Partition,
    PiecewiseConstantDensity,
    _check_mixture_depth,
)
from .seqmodel import _count, _layout

__all__ = [
    "EmpiricalEntropy",
    "TestReport",
    "empirical_entropy",
    "identity_test",
    "partition_meta_test",
    "serial_independence_test",
]

_HUGE = float(np.finfo(float).max)


@dataclass(frozen=True)
class EmpiricalEntropy:
    """Plug-in conditional entropy of a fixed order, in bits per symbol."""

    order: int
    value: float
    window_count: int


def empirical_entropy(x, k: int) -> EmpiricalEntropy:
    """Order-k empirical entropy from sliding-window counts (0 log 0 = 0).

    Every sample must be longer than k; the normalizer is the total
    number of (k+1)-windows, t - k*r over r samples.
    """
    size, flat, lengths = _layout(x)
    if (lengths <= k).any():
        raise ValueError(f"every sample must be longer than the order k={k}")
    windows = int((lengths - k).sum())
    counts = _count(flat, lengths, size, k)
    acc = 0.0  # summed context by context, which fixes the rounding of reports
    rows = np.split(counts.pair, counts.starts[1:])
    for row, total in zip(rows, counts.context.tolist()):
        acc -= float((row * (np.log2(row) - math.log2(total))).sum())
    value = acc / windows
    return EmpiricalEntropy(order=k, value=value, window_count=windows)


@dataclass
class TestReport:
    """Outcome of one test: reject iff statistic_bits > threshold_bits."""

    test: str
    alpha: float
    statistic_bits: float
    threshold_bits: float
    verdict: str
    provider: str
    order: int | None
    lengths: list[int]
    sub_reports: list["TestReport"] = field(default_factory=list)

    @property
    def rejected(self) -> bool:
        return self.verdict == "reject"

    def to_dict(self) -> dict:
        def clamp(v):
            if v == math.inf:
                return _HUGE
            if v == -math.inf:
                return -_HUGE
            return v

        return {
            "test": self.test,
            "alpha": self.alpha,
            "statistic_bits": clamp(self.statistic_bits),
            "threshold_bits": clamp(self.threshold_bits),
            "verdict": self.verdict,
            "provider": self.provider,
            "order": self.order,
            "lengths": self.lengths,
            "sub_reports": [r.to_dict() for r in self.sub_reports],
        }


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


def _compression_test(test: str, x, reference_bits: float, alpha: float,
                      provider: CodelengthProvider | None, order: int) -> TestReport:
    """The rule every test shares: reject iff the provider's codelength
    undercuts `reference_bits` by more than log2(1/alpha) bits.  An
    infinite reference (probability zero) rejects without coding."""
    if provider is None:
        provider = ideal_r_provider()
    if reference_bits == math.inf:
        statistic = math.inf
    else:
        statistic = reference_bits - provider.codelength(x)
    threshold = -math.log2(alpha)
    return TestReport(
        test=test,
        alpha=alpha,
        statistic_bits=statistic,
        threshold_bits=threshold,
        verdict="reject" if statistic > threshold else "accept",
        provider=provider.name,
        order=order,
        lengths=_layout(x)[2].tolist(),
    )


def identity_test(x, null: MarkovSource, alpha: float,
                  provider: CodelengthProvider | None = None) -> TestReport:
    """Goodness-of-fit test of a fully specified null source, whose
    reference is -log2 null(x).  A null that assigns the data probability
    zero is rejected outright."""
    _check_alpha(alpha)
    return _compression_test("identity", x, -null.log2prob(x), alpha, provider,
                             null.order)


def serial_independence_test(x, m: int, alpha: float,
                             provider: CodelengthProvider | None = None) -> TestReport:
    """Test of the hypothesis that the source is Markov of order <= m,
    whose reference is the empirical entropy total (t - r*m) * h*_m."""
    _check_alpha(alpha)
    ent = empirical_entropy(x, m)
    return _compression_test("serial-independence", x, ent.window_count * ent.value,
                             alpha, provider, m)


# ---------------------------------------------------------------------------
# Partition scheme for real-valued data


def _cell_probs(null_density, partition: Partition) -> np.ndarray:
    """Null probability of every cell: exact for piecewise-constant
    densities, adaptive quadrature (rtol 1e-8) for callables."""
    if isinstance(null_density, PiecewiseConstantDensity):
        integral = null_density.integral
    else:
        try:
            from scipy import integrate  # slow to import; only callables need it
        except ImportError as exc:
            raise ImportError(
                "a callable null density needs scipy for quadrature; install the "
                "'quad' extra (pip install 'uctseries[quad]') or pass a "
                "PiecewiseConstantDensity"
            ) from exc

        def integral(lo, hi):
            return integrate.quad(null_density, lo, hi, epsrel=1e-8, limit=200)[0]
    probs = np.array([integral(*partition.cell_bounds(i)) for i in range(partition.cells)])
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"null density integrates to {total!r} over the domain")
    return probs / total


def partition_meta_test(data, alpha: float, kind: str = "si",
                        max_depth: int = DEFAULT_MAX_DEPTH,
                        domain: tuple[float, float] = (0.0, 1.0),
                        null_density=None,
                        max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                        ) -> TestReport:
    """Run a finite-alphabet test on successively finer quantizations.

    At every depth i = 1..max_depth the i-th sub-test runs at level
    alpha * w_i (the mixture weights, so the levels sum to at most alpha)
    on the data quantized by the dyadic partition of the domain into 2^i
    cells; its report is sub_reports[i-1].  The statistic is the largest
    margin statistic - threshold of the sub-tests, so the meta-test
    rejects iff any sub-test rejects.  Values are quantized once, at
    max_depth, into every depth's cells (`Partition.levels`).

    kind "si" tests serial independence of i.i.d. data (order 0 only:
    quantizing can inflate the memory of a Markov chain, so higher orders
    are not meaningful here); kind "id" tests a null given as a density
    over the domain, quantized cell by cell.  Empty data is refused.
    """
    _check_alpha(alpha)
    if kind not in ("si", "id"):
        raise ValueError("kind must be 'si' or 'id'")
    if kind == "id" and null_density is None:
        raise ValueError("identity meta-test needs a null density")
    _check_mixture_depth(max_depth)
    lo, hi = domain
    levels = Partition(lo, hi, max_depth).levels(data)
    t = len(levels[0])
    if not t:
        raise ValueError("partition meta-test needs at least one value")
    provider = ideal_r_provider(max_explicit_order)

    subs: list[TestReport] = []
    for i, cells in enumerate(levels[1:], start=1):
        level = alpha * order_weight(i)
        if kind == "si":
            subs.append(serial_independence_test(cells, 0, level, provider))
        else:
            probs = _cell_probs(null_density, Partition(lo, hi, i))
            subs.append(identity_test(cells, MarkovSource.iid(cells.alphabet, probs),
                                      level, provider))

    statistic = max((s.statistic_bits - s.threshold_bits for s in subs), default=0.0)
    return TestReport(
        test=f"partition-{kind}",
        alpha=alpha,
        statistic_bits=statistic,
        threshold_bits=0.0,
        verdict="reject" if statistic > 0.0 else "accept",
        provider=provider.name,
        order=0,
        lengths=[t],
        sub_reports=subs,
    )
