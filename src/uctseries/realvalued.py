"""Quantization-based density estimation for bounded real-valued series.

A dyadic partition of a half-open interval turns reals into symbols; a
depth-weighted mixture of finite-alphabet estimators over successively
finer quantizations, divided by the Lebesgue measure of the quantized
cells, yields a density estimate whose per-letter log-loss converges to
the relative entropy rate of the source.  Conditional densities are
piecewise constant on the finest partition, so event probabilities and
expectations of piecewise-linear functions integrate in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    MixtureEstimator,
    final_conditional,
    log2_sum,
    order_weight,
    r_log2prob,
)
from .seqmodel import Alphabet, SymbolSeq

__all__ = [
    "DensityEstimator",
    "DomainError",
    "MAX_DEPTH",
    "Partition",
    "PiecewiseConstantDensity",
    "conditional_density",
    "density_log2",
    "event_probability",
    "expectation",
    "quantize",
    "sign_process_generate",
]

DEFAULT_MAX_DEPTH = 8

# The deepest partition a depth mixture runs on: the density estimate,
# its conditionals and the partition meta-test.  Past it the add-half
# context term lgamma(c + 2^(s-1)) - lgamma(2^(s-1)) of a depth-s code
# cancels in floating point; against an exact evaluation one term with
# c = 1 is off by 1.9e-10 bits at depth 20, 6.1e-7 at 28, 2.2e-3 at 40,
# 0.61 at 48 and more than 50 bits from depth 54 on.  A cancellation-free
# form of that term would lift the bound; plain quantization (Partition)
# goes to depth 62.
MAX_DEPTH = 20


class DomainError(ValueError):
    """A value lies outside the configured half-open domain."""


def _check_mixture_depth(depth: int) -> None:
    """Reject a depth mixture deeper than MAX_DEPTH."""
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds MAX_DEPTH = {MAX_DEPTH}: deeper "
                         "context terms lose their precision to cancellation")


def _order_cap(depth: int) -> int:
    # High Markov orders are vacuous once the alphabet grows: 2^depth
    # cells leave too few windows per context at desk scale.
    return 8 if depth <= 2 else 2


@dataclass(frozen=True)
class Partition:
    """Dyadic partition of [lower, upper) into 2**depth equal cells.

    The depth-s cell of a value is its depth-d cell shifted right by
    d - s bits (d >= s): scaling by 2**depth is exact in floating point
    and the clamp to the last cell commutes with the shift.
    """

    lower: float
    upper: float
    depth: int

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("domain bounds must be finite")
        if not self.upper > self.lower:
            raise ValueError("domain upper bound must exceed lower bound")
        if not 0 <= self.depth <= 62:
            raise ValueError("depth must lie in 0..62 (cell indices are int64)")

    @property
    def cells(self) -> int:
        return 1 << self.depth

    @property
    def cell_measure(self) -> float:
        return (self.upper - self.lower) / self.cells

    def cell_index(self, values) -> np.ndarray:
        """Cell of each value; NaN and values equal to the upper bound are rejected."""
        arr = np.asarray(values, dtype=float).reshape(-1)
        bad = np.nonzero(~((arr >= self.lower) & (arr < self.upper)))[0]
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"value {float(arr[i])!r} at index {i} "
                              f"outside [{self.lower}, {self.upper})")
        scaled = (arr - self.lower) / (self.upper - self.lower)
        idx = np.floor(scaled * self.cells).astype(np.int64)
        return np.minimum(idx, self.cells - 1)

    def level_cells(self, values) -> list[np.ndarray]:
        """The values' cell indices at depths 0..depth, the depth-s ones
        over 2**s cells, from one cell_index call."""
        finest = self.cell_index(values)
        return [finest >> (self.depth - s) for s in range(self.depth + 1)]

    def levels(self, values) -> list[SymbolSeq]:
        """level_cells as sequences, the depth-s one over 2**s symbols."""
        return [SymbolSeq(Alphabet.of_size(1 << s), cells)
                for s, cells in enumerate(self.level_cells(values))]

    def cell_bounds(self, i: int) -> tuple[float, float]:
        w = self.cell_measure
        return self.lower + i * w, self.lower + (i + 1) * w

    def edges(self) -> np.ndarray:
        return self.lower + self.cell_measure * np.arange(self.cells + 1)

    def alphabet(self) -> Alphabet:
        return Alphabet.of_size(self.cells)


def quantize(values, partition: Partition) -> SymbolSeq:
    """Map reals to the cell-index symbols of `partition`."""
    return SymbolSeq(partition.alphabet(), partition.cell_index(values))


@dataclass(frozen=True)
class PiecewiseConstantDensity:
    """Density that is constant between consecutive breakpoints."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) + 1:
            raise ValueError("need exactly one more breakpoint than value")
        if any(b >= a for a, b in zip(self.breakpoints[1:], self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("density values must be nonnegative")

    def __call__(self, x: float) -> float:
        i = np.searchsorted(self.breakpoints, x, side="right") - 1
        if i < 0 or i >= len(self.values):
            return 0.0
        return self.values[int(i)]

    def integral(self, lo: float, hi: float) -> float:
        bp = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        left = np.clip(bp[:-1], lo, hi)
        right = np.clip(bp[1:], lo, hi)
        return float(((right - left) * vals).sum())

    def expectation(self, xs, ys) -> float:
        """Integral of f times the density, f the linear interpolant of the
        table (xs, ys), held at its end values beyond it (numpy.interp).

        Exact: between consecutive breakpoints of f and of the density the
        integrand is linear, so the trapezoid rule is exact on each piece.
        """
        bp = np.asarray(self.breakpoints)
        xs = np.asarray(xs, dtype=float)
        grid = np.union1d(bp, np.clip(xs, bp[0], bp[-1]))
        f_at = np.interp(grid, xs, ys)
        mids = 0.5 * (grid[:-1] + grid[1:])
        dens = np.asarray(self.values)[np.searchsorted(bp, mids, side="right") - 1]
        seg = (grid[1:] - grid[:-1]) * 0.5 * (f_at[:-1] + f_at[1:]) * dens
        return float(seg.sum())

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "PiecewiseConstantDensity":
        return cls((lower, upper), (1.0 / (upper - lower),))


# The depth mixture, shared by the batch and the sequential estimate:
# depth s contributes w_{s+1} * mu_s(x) / |cell_s|^t, where mu_s is the
# quantized measure of the t values at depth s.


def _log2_cell_volumes(finest: Partition) -> np.ndarray:
    """log2 of the cell measure at each depth 0..finest.depth."""
    width = finest.upper - finest.lower
    return np.array([math.log2(width / (1 << s)) for s in range(finest.depth + 1)])


def _depth_log2_terms(finest: Partition, t: int, mus) -> np.ndarray:
    """log2 w_{s+1} + mu_s - t*log2|cell_s| for depths s = 0..finest.depth.

    The single cell of depth 0 has quantized measure 1, so mu_0 = 0.
    """
    log2_weights = np.array([math.log2(order_weight(s + 1))
                             for s in range(finest.depth + 1)])
    return log2_weights + np.asarray(mus, dtype=float) - t * _log2_cell_volumes(finest)


def _conditional_cell_log2densities(finest: Partition, terms, conds) -> np.ndarray:
    """log2 conditional density on the finest cells: depth s's next-cell
    log2 conditional conds[s], spread evenly over its cell, weighted by
    the depth's posterior weight from its log2 term."""
    weights = terms - log2_sum(terms)
    cells = finest.cells
    out = np.full(cells, -math.inf)
    for s, log2_volume in enumerate(_log2_cell_volumes(finest)):
        out = np.logaddexp2(out, weights[s] + np.repeat(conds[s], cells >> s)
                            - log2_volume)
    return out


def _piecewise(finest: Partition, log2_densities) -> PiecewiseConstantDensity:
    return PiecewiseConstantDensity(tuple(finest.edges().tolist()),
                                    tuple(np.exp2(log2_densities).tolist()))


def _mixture_log2(terms, renormalize: bool) -> float:
    """log2 of the summed depth terms, divided by the weight total when
    renormalizing (the weights alone are a strict sub-probability)."""
    total = log2_sum(terms)
    if renormalize:
        total -= math.log2(sum(order_weight(s + 1) for s in range(len(terms))))
    return float(total)


class DensityEstimator:
    """Sequential density estimate over [lower, upper).

    Mixes, over depths 0..max_depth, a finite-alphabet mixture estimator
    of the depth-s quantized sequence divided by the Lebesgue measure of
    its cells, with depth weights w_1..w_{max_depth+1}.  The weights are
    used as-is (a strict sub-probability, conservative for log-loss)
    unless renormalize is set; the conditional density is the same
    either way.
    """

    def __init__(self, lower: float, upper: float,
                 max_depth: int = DEFAULT_MAX_DEPTH,
                 renormalize: bool = False):
        _check_mixture_depth(max_depth)
        self.partition = Partition(lower, upper, int(max_depth))  # the finest
        self.renormalize = bool(renormalize)
        # depths 1..max_depth; depth 0 needs no estimator (mu_0 = 0)
        self._estimators = [MixtureEstimator(Alphabet.of_size(1 << s), _order_cap(s))
                            for s in range(1, self.partition.depth + 1)]
        self.t = 0

    def append(self, x: float) -> None:
        self.consume([x])

    def consume(self, values) -> "DensityEstimator":
        """Take the values in order; a value outside the domain is rejected
        before any state changes."""
        levels = self.partition.level_cells(values)
        for est, cells in zip(self._estimators, levels[1:]):
            for a in cells.tolist():
                est.append(a)
        self.t += levels[0].size
        return self

    def depth_log2_terms(self) -> np.ndarray:
        """Per-depth log2 of weight * quantized probability / cell volume^t,
        with the prior weights as-is (log2_density renormalizes)."""
        mus = [0.0] + [est.log2prob for est in self._estimators]
        return _depth_log2_terms(self.partition, self.t, mus)

    @property
    def log2_density(self) -> float:
        """log2 of the joint density of everything consumed so far."""
        return _mixture_log2(self.depth_log2_terms(), self.renormalize)

    def conditional_cell_log2densities(self) -> np.ndarray:
        """log2 conditional density over the finest-partition cells.

        The conditional density given the consumed history is piecewise
        constant on the 2^max_depth finest cells: each depth's next-cell
        conditional, spread evenly over its cell, weighted by the depth's
        posterior weight.
        """
        conds = [np.zeros(1)] + [np.log2(est.conditional_probs()) for est in self._estimators]
        return _conditional_cell_log2densities(self.partition, self.depth_log2_terms(), conds)

    def conditional(self) -> PiecewiseConstantDensity:
        """Density of the next value given everything consumed so far."""
        return _piecewise(self.partition, self.conditional_cell_log2densities())


def density_log2(values, lower: float, upper: float,
                 max_depth: int = DEFAULT_MAX_DEPTH,
                 renormalize: bool = False) -> float:
    """Batch log2 joint density of a real sequence (fast path).

    Equivalent to consuming the sequence with DensityEstimator but
    evaluated per depth with the batch mixture, which is much faster.
    """
    _check_mixture_depth(max_depth)
    finest = Partition(lower, upper, max_depth)
    levels = finest.levels(values)
    mus = [0.0] + [r_log2prob(cells, _order_cap(s)) for s, cells in enumerate(levels[1:], 1)]
    return _mixture_log2(_depth_log2_terms(finest, len(levels[0]), mus), renormalize)


def _history_conditional(history, lower, upper,
                         max_depth) -> tuple[Partition, np.ndarray]:
    """The finest partition and the log2 conditional density on its cells
    given the history, from the batch counts of each depth.

    Equal to DensityEstimator(...).consume(history) and its
    conditional_cell_log2densities() up to rounding, without replaying the
    history: each depth's final_conditional gives its next-cell
    conditional and its r_log2prob, which sets the depth posterior as in
    density_log2.
    """
    _check_mixture_depth(max_depth)
    finest = Partition(lower, upper, int(max_depth))
    levels = finest.levels([] if history is None else history)
    mus, conds = [0.0], [np.zeros(1)]
    for s, cells in enumerate(levels[1:], 1):
        probs, mu = final_conditional(cells, _order_cap(s))
        mus.append(mu)
        conds.append(np.log2(probs))
    terms = _depth_log2_terms(finest, len(levels[0]), mus)
    return finest, _conditional_cell_log2densities(finest, terms, conds)


def conditional_density(x_next: float, history, lower: float, upper: float,
                        max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """log2 conditional density of the next value given the history."""
    finest, log2_densities = _history_conditional(history, lower, upper, max_depth)
    return float(log2_densities[int(finest.cell_index([x_next])[0])])


def event_probability(intervals, history, lower: float, upper: float,
                      max_depth: int = DEFAULT_MAX_DEPTH) -> float:
    """Probability of a finite union of disjoint intervals under the
    conditional.

    Intervals may touch but not overlap; empty ones are ignored.  The
    conditional density is piecewise constant on the finest cells, so
    the integral is an exact sum of cell overlaps.
    """
    pairs = [(float(lo), float(hi)) for lo, hi in intervals]
    for lo, hi in pairs:
        if hi < lo:
            raise ValueError(f"malformed interval ({lo}, {hi})")
        if lo < lower or hi > upper:
            raise DomainError("interval extends outside the domain")
    spans = sorted(pair for pair in pairs if pair[0] < pair[1])
    for prev, cur in zip(spans, spans[1:]):
        if cur[0] < prev[1]:
            raise ValueError(f"intervals {prev} and {cur} overlap")
    cond = _piecewise(*_history_conditional(history, lower, upper, max_depth))
    return sum(cond.integral(lo, hi) for lo, hi in pairs)


def expectation(f_breakpoints, f_values, history, lower: float, upper: float,
                max_depth: int = DEFAULT_MAX_DEPTH,
                bound: float | None = None) -> float:
    """Integral of a piecewise-linear function against the conditional.

    The function is given as a table (breakpoints, values) that must
    cover the whole domain; exact closed form since the density is
    piecewise constant and the integrand piecewise linear.
    """
    xs = np.asarray(f_breakpoints, dtype=float)
    ys = np.asarray(f_values, dtype=float)
    if xs.ndim != 1 or xs.size != ys.size or xs.size < 2:
        raise ValueError("function table needs matching breakpoint/value arrays")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("function breakpoints must be strictly increasing")
    if xs[0] > lower or xs[-1] < upper:
        raise ValueError("function table has gaps: it must cover the domain")
    if bound is not None and np.abs(ys).max() > bound + 1e-12:
        raise ValueError("function values exceed the declared bound")
    cond = _piecewise(*_history_conditional(history, lower, upper, max_depth))
    return cond.expectation(xs, ys)


def sign_process_generate(alpha_param: float, t: int, seed: int = 0) -> np.ndarray:
    """Markov process on [-1, 1) whose density depends on the previous sign.

    Given the previous value y, the next value is negative with
    probability 1/2 + alpha_param * sign(y) (sign(0) counts positive) and
    uniform within its chosen half.  Deterministic per seed.
    """
    if not 0.0 < alpha_param < 0.5:
        raise ValueError("alpha_param must lie strictly between 0 and 1/2")
    if t < 1:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    # Flip probability is 1/2 + alpha regardless of the current sign, so
    # the sign chain reduces to i.i.d. flip indicators.
    first_negative = rng.random() < 0.5
    flips = rng.random(t - 1) < 0.5 + alpha_param
    negative = np.empty(t, dtype=bool)
    negative[0] = first_negative
    negative[1:] = first_negative ^ (np.cumsum(flips) % 2).astype(bool)
    u = rng.random(t)
    return np.where(negative, u - 1.0, u)
