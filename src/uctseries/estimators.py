"""Sequential probability estimators in the base-2 log domain.

Implements the add-one (Laplace) and add-half (Krichevsky-Trofimov style)
estimators, their fixed-order Markov extensions with multi-sample support,
and the order-weighted mixture measure that serves simultaneously as a
consistent probability estimator and as the ideal codelength of a
universal compressor.

Probabilities are plain floats holding base-2 logarithms (`LogProb`,
always <= 0, -inf for zero); sums of probabilities go through
``numpy.logaddexp2`` or :func:`log2_sum`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .seqmodel import (
    Alphabet,
    AlphabetMismatchError,
    SymbolSeq,
    WindowCounts,
    _coerce_word,
    _count,
    _count_each,
    _layout,
    _window_codes,
    as_sample_arrays,
    window_counts,
)

__all__ = [
    "KtState",
    "LogProb",
    "MarkovSource",
    "MixtureEstimator",
    "MonteCarloEstimate",
    "PairAlphabet",
    "avg_kl_error",
    "final_conditional",
    "kt_log2prob",
    "laplace_cond_log2prob",
    "laplace_log2prob",
    "log2_sum",
    "order_weight",
    "order_weight_tail",
    "r_cond_log2prob",
    "r_log2prob",
    "side_info_cond_log2probs",
]

LogProb = float  # base-2 logarithm of a probability; -inf encodes zero

_LN2 = math.log(2.0)
DEFAULT_MAX_EXPLICIT_ORDER = 16


def log2_sum(terms) -> LogProb:
    """log2 of a sum of probabilities given as base-2 logs."""
    arr = np.asarray(terms if isinstance(terms, np.ndarray) else list(terms), dtype=float)
    if arr.size == 0:
        return -math.inf
    m = arr.max()
    if not np.isfinite(m):
        return m
    return float(m + np.log2(np.exp2(arr - m).sum()))


def order_weight(i: int) -> float:
    """Weight of mixture component i (1-indexed); the weights sum to one."""
    if i < 1:
        raise ValueError("order weights are indexed from 1")
    if i == 1:
        return 1.0 - 1.0 / math.log2(3.0)
    return 1.0 / math.log2(i + 1) - 1.0 / math.log2(i + 2)


def order_weight_tail(k: int) -> float:
    """Sum of all weights from index k on (closed form by telescoping)."""
    if k <= 1:
        return 1.0
    return 1.0 / math.log2(k + 1)


# ---------------------------------------------------------------------------
# Log-gamma of integer counts

# Longest table kept per offset (2^16 floats, 512 KiB), and most offsets kept.
_LGAMMA_TABLE_CAP = 1 << 16
_LGAMMA_MAX_TABLES = 64
_lgamma_tables: dict[float, np.ndarray] = {}
_NO_TABLE = np.empty(0)


def _lgamma_counts(counts: np.ndarray, offset: float) -> np.ndarray:
    """ln Gamma(c + offset) for every nonnegative integer count c in `counts`.

    Each value equals math.lgamma(c + offset).  Counts below
    _LGAMMA_TABLE_CAP are read from a table per offset, grown on demand
    (doubling, up to the cap) only as far as the largest of them needs;
    counts at or past the cap are evaluated one at a time and never grow
    a table, so a single large count (such as an order-0 context count)
    does not fill one.
    """
    table = _lgamma_tables.get(offset, _NO_TABLE)
    try:
        return table[counts]
    except IndexError:  # a count past the table's end
        pass
    big = counts >= table.size
    over = counts[big]
    below_cap = over[over < _LGAMMA_TABLE_CAP]
    if below_cap.size:
        if offset not in _lgamma_tables and len(_lgamma_tables) >= _LGAMMA_MAX_TABLES:
            _lgamma_tables.clear()
        size = min(max(int(below_cap.max()) + 1, 2 * table.size), _LGAMMA_TABLE_CAP)
        grown = np.fromiter(map(math.lgamma, (np.arange(table.size, size) + offset).tolist()),
                            float, size - table.size)
        table = _lgamma_tables[offset] = np.concatenate([table, grown])
        big = counts >= table.size
    out = np.empty(counts.shape)
    out[~big] = table[counts[~big]]
    out[big] = list(map(math.lgamma, (counts[big] + offset).tolist()))
    return out


# ---------------------------------------------------------------------------
# Laplace (add-one) estimator, order 0


def laplace_cond_log2prob(a: int, x: SymbolSeq) -> LogProb:
    """log2 of (nu(a) + 1) / (t + |A|)."""
    size = x.alphabet.size
    nu = int((x.symbols == int(a)).sum())
    return math.log2((nu + 1.0) / (len(x) + size))


def laplace_log2prob(x: SymbolSeq) -> LogProb:
    """Chain product of add-one conditionals, evaluated in closed form.

    The product telescopes to  prod_a nu(a)! * (|A|-1)! / (t+|A|-1)!.
    """
    size = x.alphabet.size
    nu = window_counts(x, 0).pair  # unseen symbols add lgamma(1) = 0
    val = _lgamma_counts(nu, 1.0).sum() + math.lgamma(size) - math.lgamma(len(x) + size)
    return float(val / _LN2)


# ---------------------------------------------------------------------------
# Add-half estimator of fixed Markov order (batch evaluation)


def kt_log2prob(x, m: int) -> LogProb:
    """Exact log2 probability of the order-m add-half estimator.

    The first min(m, t_i) letters of every sample are priced at 1/|A|;
    the rest comes from the pooled window counts through log-gamma.
    """
    size, flat, lengths = _layout(x)
    counts = _count(flat, lengths, size, m)
    return _kt_bits(counts.pair, counts.context, lengths, m, size)


def _kt_bits(pair: np.ndarray, context: np.ndarray, lengths: np.ndarray, m: int,
             size: int) -> LogProb:
    """log2 of the order-m add-half probability of pooled window counts:
    the first min(m, t_j) letters of each sample at 1/|A|, then each
    context's chain of add-half conditionals, prod_a Gamma(nu(v a) + 1/2)
    / Gamma(1/2) over Gamma(nu-bar(v) + |A|/2) / Gamma(|A|/2)."""
    prefix = int(np.minimum(lengths, m).sum())
    num = _lgamma_counts(pair, 0.5).sum() - pair.size * math.lgamma(0.5)
    den = _lgamma_counts(context, size / 2.0).sum() - context.size * math.lgamma(size / 2.0)
    return float(-(prefix * math.log2(size)) + (num - den) / _LN2)


def _leading_kt_bits(counts: WindowCounts, lengths: np.ndarray, m: int,
                     size: int) -> LogProb:
    """The order-m add-half log2 probability of x, whose samples have
    `lengths`, from the counts of an extension of x.

    x's windows are the first sum_j max(0, t_j - m) codes of `counts`.
    The windows after them, those the extension adds, are taken out of
    their pair and context counts, and the counts left at zero dropped,
    so the arrays are those window_counts(x, m) gives.
    """
    n = int(np.maximum(lengths - m, 0).sum())
    pair, context = counts.pair, counts.context
    if n < counts.codes.size:
        pair, context = pair.copy(), context.copy()
        extra = np.searchsorted(counts.windows, counts.codes[n:])
        np.subtract.at(pair, extra, 1)
        np.subtract.at(context, np.searchsorted(counts.starts, extra, "right") - 1, 1)
        pair, context = pair[pair > 0], context[context > 0]
    return _kt_bits(pair, context, lengths, m, size)


# ---------------------------------------------------------------------------
# Sequential mixture on one context table


class MixtureEstimator:
    """Order-weighted mixture of add-half Markov estimators.

    Explicit orders 0..max_explicit_order are counted; all higher orders
    are priced by the uniform measure, whose weight has the closed form
    1/log2(max_explicit_order + 3).  The mixture is exact whenever
    max_explicit_order >= total length - 1, is a proper measure for every
    length (conditionals sum to one), and `truncated` flags inputs long
    enough for the uniform tail to stand in for unpriced orders.

    Every order shares one context table (a context tree, as in CTW and
    PPM): node 0 is the empty context and the child of node v for symbol
    s is v extended one symbol into the past, so walking the current
    sample's recent symbols backwards from the root reaches the context
    of every order.  Each node keeps a sparse row, a {symbol: count} dict,
    and its add-half denominator, row sum + |A|/2 (a float, exact: counts
    are integers and |A|/2 a multiple of 1/2, far below 2^53).  An order
    whose context is unseen, or not yet complete in the current sample, is
    uniform.  Conditionals are maintained through posterior component
    weights, so no per-order probability ever underflows.

    The step is plain Python floats.  `append` touches only the coded
    symbol's column along the stored context path, then walks the next
    symbol's path once; `conditional_probs` reads it and computes one
    column per distinct row of counts along it: rows nest, so a symbol
    no deeper context has seen shares its column with every symbol of
    equal count, and all never-seen symbols share one column.  It skips
    additions that provably leave every column unchanged.  Each column
    is otherwise the dense formula's sum, taken in the same order
    (uniform tail, orders 0, 1, ...), so the results are bit-identical
    to the dense formula.

    This streaming form serves the coder, which needs a conditional at
    every step.  For one conditional after a whole history,
    `final_conditional` reads it from the batch counts without a replay.
    """

    def __init__(self, alphabet: Alphabet,
                 max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER):
        if max_explicit_order < 0:
            raise ValueError("max_explicit_order must be nonnegative")
        self.alphabet = alphabet
        self.max_explicit_order = max_explicit_order
        # posterior weights: the uniform tail first, then orders 0, 1, ...
        self._w = [order_weight_tail(max_explicit_order + 2)] + [
            order_weight(i + 1) for i in range(max_explicit_order + 1)
        ]
        self._child: dict[tuple[int, int], int] = {}
        self._rows: list[dict[int, int]] = [{}]  # per node: {symbol: count}
        self._dens: list[float] = [alphabet.size / 2.0]  # per node: row sum + |A|/2
        self._hist: list[int] = []  # last max_explicit_order symbols of the sample
        self._path = [0]  # nodes of the current context of orders 0, 1, ... while seen
        self.log2prob: LogProb = 0.0
        self.truncated = False
        self._pos = 0

    def conditional_probs(self) -> np.ndarray:
        size = self.alphabet.size
        w, rows, dens, path = self._w, self._rows, self._dens, self._path
        # The column of a symbol no context has seen has the smallest
        # partial sum of all columns at every addition.  An addition that
        # leaves that partial unchanged even when doubled leaves every
        # column unchanged, so the columns below make only the live ones.
        # An order's share is at most its weight: c + 0.5 <= total + |A|/2.
        head = unseen = w[0] / size
        live_rows = []  # (weight, row, denominator) of live path orders
        for wi, node in zip(w[1:], path):
            den = dens[node]
            if unseen + 2.0 * wi != unseen:
                live_rows.append((wi, rows[node], den))
            unseen += wi * (0.5 / den)
        live_tail = []  # live shares of the uniform orders
        for wi in w[len(path) + 1:]:
            term = wi * (1.0 / size)
            if unseen + 2.0 * term != unseen:
                live_tail.append(term)
            unseen += term

        def column(s: int) -> float:
            acc = head
            for wi, row, den in live_rows:
                acc += wi * ((row.get(s, 0) + 0.5) / den)
            for term in live_tail:
                acc += term
            return acc

        probs = [unseen] * size
        if live_rows:
            # Rows nest along the path (a symbol counted in a context is
            # counted in every shorter one), so a symbol missing from the
            # second live row shares its column with every symbol of equal
            # count in the first, and one missing from the first is unseen.
            first = live_rows[0][1]
            second = live_rows[1][1] if len(live_rows) > 1 else {}
            shared: dict[int, float] = {}
            for s, c in first.items():
                if s in second:
                    probs[s] = column(s)
                    continue
                p = shared.get(c)
                if p is None:
                    p = shared[c] = column(s)
                probs[s] = p
        return np.array(probs)

    def conditional_log2prob(self, a: int) -> LogProb:
        return float(np.log2(self.conditional_probs()[int(a)]))

    def append(self, a: int) -> None:
        a = int(a)
        size = self.alphabet.size
        if not 0 <= a < size:
            raise AlphabetMismatchError(f"symbol {a} outside an alphabet of {size}")
        w, rows, dens, child = self._w, self._rows, self._dens, self._child
        hist, path = self._hist, self._path
        # joint[i] is component i's share of R's conditional of a, summed
        # left to right as the dense formula does
        joint = [w[0] / size]
        step = joint[0]
        for wi, node in zip(w[1:], path):
            term = wi * ((rows[node].get(a, 0) + 0.5) / dens[node])
            joint.append(term)
            step += term
        for wi in w[len(path) + 1:]:
            term = wi * (1.0 / size)
            joint.append(term)
            step += term
        self.log2prob += math.log2(step)
        self._w = [term / step for term in joint]
        for node in path:
            row = rows[node]
            row[a] = row.get(a, 0) + 1
            dens[node] += 1.0
        # contexts first completed or first seen now get their nodes
        node = path[-1]
        for s in reversed(hist[:len(hist) - len(path) + 1]):
            child[(node, s)] = node = len(rows)
            rows.append({a: 1})
            dens.append(1.0 + size / 2.0)
        hist.append(a)
        if len(hist) > self.max_explicit_order:
            del hist[0]
        self._pos += 1
        self.truncated = self.truncated or self._pos > self.max_explicit_order + 1
        # the context path of the next symbol, walked once per symbol
        node, path = 0, [0]
        for s in reversed(hist):
            node = child.get((node, s))
            if node is None:
                break
            path.append(node)
        self._path = path

    def new_sample(self) -> None:
        self._hist = []
        self._path = [0]
        self._pos = 0

    def consume(self, x) -> "MixtureEstimator":
        alphabet, samples = as_sample_arrays(x)
        if alphabet.size != self.alphabet.size:
            raise AlphabetMismatchError("sequence alphabet size differs from the estimator")
        for j, arr in enumerate(samples):
            if j:
                self.new_sample()
            for a in arr.tolist():
                self.append(a)
        return self


class KtState(MixtureEstimator):
    """Sequential add-half estimator of fixed Markov order.

    The mixture with all of its prior weight on `order` and none on the
    uniform tail; the posterior keeps it there, so log2prob and the
    conditionals are those of order `order` alone.  The first `order`
    letters of each sample are priced uniformly.
    """

    def __init__(self, alphabet: Alphabet, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        super().__init__(alphabet, order)
        self.order = order
        self._w = [0.0] * (order + 1) + [1.0]


# ---------------------------------------------------------------------------
# Mixture measure, batch evaluation


def _explicit_order(lengths: np.ndarray, max_explicit_order: int) -> int:
    """The highest order the batch mixture counts.

    Orders above min(max_explicit_order, longest sample - 1) all reduce
    to the uniform measure |A|^-t.
    """
    if max_explicit_order < 0:
        raise ValueError("max_explicit_order must be nonnegative")
    return min(max_explicit_order, int(lengths.max()) - 1)


def _mixture_terms(kt_bits, total, size: int) -> np.ndarray:
    """The summands of log2 R along the last axis, given log2 K_i for the
    counted orders i = 0..E along it: log2 w_{i+1} + log2 K_i, then the
    closed-form uniform tail of every higher order, log2 w_tail(E + 2)
    - t log2|A|, for t the `total` length (one per row)."""
    kt_bits = np.asarray(kt_bits, dtype=float)
    explicit = kt_bits.shape[-1]
    tail = math.log2(order_weight_tail(explicit + 1)) - np.asarray(total) * math.log2(size)
    return np.concatenate([kt_bits + _log2_weights(explicit), tail[..., None]], axis=-1)


@cache
def _log2_weights(explicit: int) -> np.ndarray:
    """log2 w_1 .. log2 w_explicit, read-only."""
    weights = np.array([math.log2(order_weight(i + 1)) for i in range(explicit)])
    weights.flags.writeable = False
    return weights


def r_log2prob(x, max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER) -> LogProb:
    """log2 of the order-weighted mixture probability of x.

    Orders above min(max_explicit_order, longest sample - 1) all reduce to
    the uniform measure |A|^-t, so their weighted sum has a closed form
    and the result is exact whenever max_explicit_order is not binding.
    """
    size, _, lengths = _layout(x)
    explicit = _explicit_order(lengths, max_explicit_order)
    kt_bits = [kt_log2prob(x, i) for i in range(explicit + 1)]
    return log2_sum(_mixture_terms(kt_bits, lengths.sum(), size))


def _r_log2prob_each(flat: np.ndarray, lengths: np.ndarray, size: int,
                     max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER) -> np.ndarray:
    """log2 R of each sample of `lengths` symbols laid end to end in `flat`,
    priced alone: r_log2prob of every sample from one count per order.

    Sample j counts orders 0..min(max_explicit_order, t_j - 1).  Each order
    is counted once over all samples, keyed by sample (`_count_each`), and
    `_kt_bits` is taken per sample by summing each sample's log-gamma terms
    with np.bincount.  Contexts all distinct within every sample stay
    distinct at every higher order, where each of a sample's n_j windows
    adds the same add-half term, so counting stops at the first such order.
    Each sample's `_mixture_terms` are summed in `log2_sum`'s order.  The
    log-gamma sums run in another order than `_kt_bits`', so values agree
    with r_log2prob in their last digits (within 1e-12 relative), not
    always ==.
    """
    samples = lengths.size
    top = _explicit_order(lengths, max_explicit_order)
    kt_bits = np.empty((samples, top + 1))
    # ln K of one window whose context is seen once
    lone = (math.lgamma(1.5) - math.lgamma(0.5)
            - math.lgamma(1.0 + size / 2.0) + math.lgamma(size / 2.0))
    distinct = False
    for i in range(top + 1):
        if distinct:
            nats = np.maximum(lengths - i, 0) * lone
        else:
            counts, of_window = _count_each(flat, lengths, size, i)
            of_context = of_window[counts.starts]
            num = (np.bincount(of_window, _lgamma_counts(counts.pair, 0.5), samples)
                   - np.bincount(of_window, minlength=samples) * math.lgamma(0.5))
            den = (np.bincount(of_context, _lgamma_counts(counts.context, size / 2.0), samples)
                   - np.bincount(of_context, minlength=samples) * math.lgamma(size / 2.0))
            nats = num - den
            distinct = counts.context.max() == 1
        kt_bits[:, i] = -(np.minimum(lengths, i) * math.log2(size)) + nats / _LN2
    out = np.empty(samples)
    explicit = np.minimum(lengths - 1, max_explicit_order)  # _explicit_order of each
    for e in set(explicit.tolist()):
        rows = explicit == e
        terms = _mixture_terms(kt_bits[rows, :e + 1], lengths[rows], size)
        peak = terms.max(axis=-1)
        out[rows] = peak + np.log2(np.exp2(terms - peak[:, None]).sum(axis=-1))
    return out


def r_cond_log2prob(word, x,
                    max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER) -> LogProb:
    """log2 of the mixture conditional probability of `word` given x.

    For a plain sequence the word extends it; for a multi-sample the word
    is evaluated as an additional independent sample.  x is counted once,
    inside the extension (`_r_log2prob_pair`), and the result is == to
    r_log2prob(x.extended(word)) - r_log2prob(x).
    """
    log2prob, extended = _r_log2prob_pair(x, word, max_explicit_order)
    return extended - log2prob


def _r_log2prob_pair(x, word, max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                     ) -> tuple[LogProb, LogProb]:
    """log2 R(x) and log2 R(x.extended(word)) from one count per order.

    Each order is counted once, on the extension's flat array, which
    prices K_i of the extension; x's K_i comes from the same counts
    (`_leading_kt_bits`).  Both values are == to r_log2prob's.
    """
    size, _, lengths = _layout(x)
    _, extension, ext_lengths = _layout(x.extended(word))
    explicit = _explicit_order(lengths, max_explicit_order)
    bits, ext_bits = [], []
    for i in range(_explicit_order(ext_lengths, max_explicit_order) + 1):
        counts = _count(extension, ext_lengths, size, i)
        ext_bits.append(_kt_bits(counts.pair, counts.context, ext_lengths, i, size))
        if i <= explicit:
            bits.append(_leading_kt_bits(counts, lengths, i, size))
    return (log2_sum(_mixture_terms(bits, lengths.sum(), size)),
            log2_sum(_mixture_terms(ext_bits, ext_lengths.sum(), size)))


def final_conditional(x, max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                      ) -> tuple[np.ndarray, LogProb]:
    """The mixture's next-symbol conditional after x, and log2 R(x).

    The next symbol continues the last sample.  R(a | x) is the sum over
    orders of the posterior weight w_i K_i(x) / R(x) times the add-half
    row of x's final order-i context, read from one count per order of
    one extension of x: symbol 0 appended to its last sample.  The
    extension's last window is ctx * |A| + 0, so the final context's row
    is the windows in [code, code + |A|), less that window's count of
    one, and `_leading_kt_bits` gives the same K_i and the same log2 R(x)
    as r_log2prob.  An order whose context the last sample does not yet
    hold, and the orders above min(max_explicit_order, longest - 1),
    which price x at |A|^-t, predict uniformly.  It equals
    MixtureEstimator(...).consume(x).conditional_probs() without
    replaying x; the posterior weights come from log-gamma sums, not
    from the sequential update, so the two differ in the last digits.
    """
    size, flat, lengths = _layout(x)
    explicit = _explicit_order(lengths, max_explicit_order)
    extension = np.append(flat, 0)
    ext_lengths = np.append(lengths[:-1], lengths[-1] + 1)
    uniform = np.full(size, 1.0 / size)
    bits, rows = [], []
    for i in range(explicit + 1):
        counts = _count(extension, ext_lengths, size, i)
        bits.append(_leading_kt_bits(counts, lengths, i, size))
        if lengths[-1] < i:  # the extension holds no window of x's final context
            rows.append(uniform)
            continue
        code = counts.codes[-1]
        lo, hi = np.searchsorted(counts.windows, [code, code + size])
        row = np.zeros(size)
        row[counts.windows[lo:hi] - code] = counts.pair[lo:hi]
        row[0] -= 1  # the extension's own window
        rows.append((row + 0.5) / (row.sum() + size / 2.0))
    terms = _mixture_terms(bits, lengths.sum(), size)
    log2prob = log2_sum(terms)
    weights = np.exp2(terms - log2prob)
    weights /= weights.sum()  # drops the error that log2prob shares with every term
    return weights @ np.array(rows + [uniform]), log2prob


# ---------------------------------------------------------------------------
# Side information over a product alphabet


@dataclass(frozen=True)
class PairAlphabet:
    """Product alphabet X x Y with bijective index pairing."""

    x_alphabet: Alphabet
    y_alphabet: Alphabet

    @property
    def product(self) -> Alphabet:
        return Alphabet.of_size(self.x_alphabet.size * self.y_alphabet.size)


def side_info_cond_log2probs(pair_alphabet: PairAlphabet, history, y_next: int,
                             max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                             ) -> np.ndarray:
    """log2 conditionals of the next x symbol given paired history and y.

    `history` holds (x, y) index pairs, an (n, 2) array or a sequence of
    pairs, read as the paired codes x*|Y| + y over the product alphabet;
    the mixture's final conditional there (`final_conditional`) gives the
    joint of the next pair.  The returned vector is normalized over x.
    """
    nx, ny = pair_alphabet.x_alphabet.size, pair_alphabet.y_alphabet.size
    pairs = np.asarray(history, dtype=np.int64).reshape(-1, 2)
    if ((pairs < 0) | (pairs >= (nx, ny))).any() or not 0 <= y_next < ny:
        raise AlphabetMismatchError("pair component out of range")
    codes = SymbolSeq(pair_alphabet.product, pairs[:, 0] * ny + pairs[:, 1])
    column = final_conditional(codes, max_explicit_order)[0][int(y_next)::ny]
    return np.log2(column / column.sum())


# ---------------------------------------------------------------------------
# Fully specified sources (truth models, test nulls, simulation inputs)


def _ctx_index(ctx, size: int) -> int:
    idx = 0
    for s in ctx:
        idx = idx * size + int(s)
    return idx


def _ctx_digits(idx: int, size: int, order: int) -> list[int]:
    """The `order` symbols of context index `idx` (inverse of _ctx_index),
    in Python integers, so no order is too long."""
    digits = []
    for _ in range(order):
        idx, s = divmod(idx, size)
        digits.append(s)
    return digits[::-1]


def _ctx_text(ctx, size: int) -> str:
    """A context as a source file writes it: digits, or comma-separated
    indices past 10 symbols ("10,3")."""
    return ("," if size > 10 else "").join(str(s) for s in ctx)


def _checked_rows(table: np.ndarray) -> np.ndarray:
    """`table` if each row (its last axis) is a probability vector, within 1e-9."""
    if not np.isfinite(table).all():
        raise ValueError("conditional probabilities must be finite")
    if np.any(table < 0):
        raise ValueError("conditional probabilities must be nonnegative")
    if np.abs(table.sum(axis=-1) - 1.0).max() > 1e-9:
        raise ValueError("conditional table rows must sum to 1 (tol 1e-9)")
    return table


def _checked_initial(initial: np.ndarray) -> np.ndarray:
    """`initial` if it is a probability vector, within 1e-9."""
    if (not np.isfinite(initial).all() or abs(initial.sum() - 1.0) > 1e-9
            or np.any(initial < 0)):
        raise ValueError("initial distribution must be a probability vector")
    return initial


# Uniform draws that `MarkovSource.sample` turns into Python floats at a time.
_SAMPLE_CHUNK = 4096


class MarkovSource:
    """A fully specified source of finite Markov order over a finite alphabet.

    The conditional table has one row per length-`order` context (contexts
    enumerated in lexicographic order) and one column per symbol; rows
    must sum to one within 1e-9.  The distribution of the first `order`
    letters defaults to the stationary distribution of the context chain.
    """

    def __init__(self, alphabet: Alphabet, order: int, table,
                 initial=None):
        self.alphabet = alphabet
        self.order = int(order)
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        size = alphabet.size
        self.table = _checked_rows(np.asarray(table, dtype=float)
                                   .reshape(size ** self.order, size))
        if initial is None:
            self.initial = self._stationary()
        else:
            self.initial = _checked_initial(np.asarray(initial, dtype=float)
                                            .reshape(size ** self.order))

    # -- construction helpers

    @classmethod
    def iid(cls, alphabet: Alphabet, probs) -> "MarkovSource":
        return cls(alphabet, 0, np.asarray(probs, dtype=float).reshape(1, -1))

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "MarkovSource":
        return cls.iid(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))

    def _stationary(self) -> np.ndarray:
        size = self.alphabet.size
        n = size ** self.order
        if self.order == 0:
            return np.ones(1)
        # column v moves context v to v * |A| % n + a with probability table[v, a]
        v = np.arange(n)
        trans = np.zeros((n, n))
        trans[(v * size % n)[:, None] + np.arange(size), v[:, None]] = self.table
        vals, vecs = np.linalg.eig(trans)
        k = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, k])
        pi = np.clip(pi * np.sign(pi.sum()), 0.0, None)  # eig may return -pi
        if pi.sum() <= 0:
            pi = np.ones(n)
        return pi / pi.sum()

    # -- probabilities

    def _block_log2probs(self, n: int) -> np.ndarray:
        """log2 probabilities of all length-n blocks under stationarity."""
        size = self.alphabet.size
        if n == 0:
            return np.zeros(1)
        if n <= self.order:
            with np.errstate(divide="ignore"):
                return np.log2(self.initial.reshape(size ** n, -1).sum(axis=1))
        with np.errstate(divide="ignore"):
            logp = np.log2(self.initial)
            logt = np.log2(self.table)
        for _ in range(self.order, n):
            # extend every block by one letter, then re-key by last `order`
            m = logp.size
            ctx = np.arange(m) % (size ** self.order)
            logp = (logp[:, None] + logt[ctx]).reshape(-1)
        return logp

    def log2prob(self, x) -> LogProb:
        """Exact log2 probability; independent samples multiply.

        The first min(t, order) symbols of a sample are priced by the
        marginal of `initial`, and each later symbol by the table entry at
        the code of its (order+1)-window, context * |A| + symbol.  The
        kernel renames codes by rank only past |A|^(order+1) = 2^62, and
        no table that large fits in memory, so the codes index it directly.
        """
        size, flat, lengths = _layout(x)
        if size != self.alphabet.size:
            raise AlphabetMismatchError("sequence alphabet size differs from source")
        with np.errstate(divide="ignore"):
            logt = np.log2(self.table).reshape(-1)
        total = float(logt[_window_codes(flat, lengths, size, self.order)[0]].sum())
        for start, t in zip((np.cumsum(lengths) - lengths).tolist(), lengths.tolist()):
            head = min(t, self.order)
            if head:
                blocks = self._block_log2probs(head)
                total += float(blocks[_ctx_index(flat[start:start + head], size)])
        return total

    def conditional(self, ctx) -> np.ndarray:
        """Next-symbol distribution given at least `order` trailing symbols."""
        ctx = _coerce_word(self.alphabet, ctx)
        if ctx.size < self.order:
            raise ValueError(f"a context needs {self.order} symbols, got {ctx.size}")
        return self.table[_ctx_index(ctx[ctx.size - self.order:], self.alphabet.size)]

    # -- sampling

    @cached_property
    def _cum_rows(self) -> list[list[float]]:
        """Each row's cumulative sums without its total, read once from `table`.

        A uniform draw u takes the symbol bisect_right(row, u), so a draw
        at or above the last kept sum, the rounded total included, takes
        the last symbol.
        """
        return self.table.cumsum(axis=1)[:, :-1].tolist()

    def sample(self, t: int, rng) -> SymbolSeq:
        """t symbols: the head from `initial`, then one uniform draw per symbol.

        Past the head, symbol i is the bisection of draw i - order in the
        cumulative row of its context.  The draws are one float64 array,
        read in chunks of `_SAMPLE_CHUNK` as Python floats.
        """
        if t < 0:
            raise ValueError(f"sample length t must be nonnegative, got {t}")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        size = self.alphabet.size
        out = np.empty(t, dtype=np.int64)
        if t == 0:
            return SymbolSeq(self.alphabet, out)
        if self.order == 0:
            out[:] = rng.choice(size, size=t, p=self.table[0])
            return SymbolSeq(self.alphabet, out)
        ctx = int(rng.choice(self.initial.size, p=self.initial))
        head = _ctx_digits(ctx, size, self.order)
        n_head = min(t, self.order)
        out[:n_head] = head[:n_head]
        mod = size ** self.order
        cum_rows = self._cum_rows
        u = rng.random(max(t - self.order, 0))
        for lo in range(0, u.size, _SAMPLE_CHUNK):
            chunk = []
            append = chunk.append
            for draw in u[lo:lo + _SAMPLE_CHUNK].tolist():
                a = bisect_right(cum_rows[ctx], draw)
                append(a)
                ctx = (ctx * size + a) % mod
            out[self.order + lo:self.order + lo + len(chunk)] = chunk
        return SymbolSeq(self.alphabet, out)

    # -- entropy rates

    def entropy_rate(self) -> float:
        """Limiting entropy in bits per symbol (equals h_m for this order)."""
        return self.conditional_entropy(self.order)

    def conditional_entropy(self, k: int) -> float:
        """Order-k conditional entropy h_k under stationarity."""
        hk1 = self._block_entropy(k + 1)
        hk = self._block_entropy(k)
        return hk1 - hk

    def _block_entropy(self, n: int) -> float:
        logp = self._block_log2probs(n)
        p = np.exp2(logp)
        mask = p > 0
        return float(-(p[mask] * logp[mask]).sum())

    # -- parameter file format (see README: "source parameter files")

    @classmethod
    def from_text(cls, text: str) -> "MarkovSource":
        size = order = initial = None
        declared: dict[str, int] = {}  # line of each declaration
        rows: dict[int, tuple[int, np.ndarray]] = {}  # context index: (line, probabilities)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *values = line.split()
            try:
                if key in declared:
                    raise ValueError(f"{key} declared again (first on line {declared[key]})")
                if key in ("alphabet", "order"):
                    declared[key] = lineno
                    if len(values) != 1:
                        raise ValueError(f"{key} takes one integer")
                    value = int(values[0])
                    if key == "alphabet":
                        if value < 1:
                            raise ValueError("alphabet size must be at least 1")
                        size = value
                    else:
                        if value < 0:
                            raise ValueError("order must be nonnegative")
                        order = value
                elif key == "initial":
                    declared[key] = lineno
                    initial = np.asarray([float(v) for v in values])
                else:
                    if size is None or order is None:
                        raise ValueError("alphabet and order must come first")
                    if order == 0:
                        ctx, probs = (), [key, *values]
                    else:
                        # a digit string, or comma-separated indices past 10 symbols
                        ctx = tuple(int(c) for c in (key.split(",") if size > 10 else key))
                        probs = values
                    if len(ctx) != order:
                        raise ValueError(f"context must have {order} symbols")
                    if any(not 0 <= c < size for c in ctx):
                        raise ValueError("context symbol out of range")
                    v = _ctx_index(ctx, size)
                    if v in rows:
                        raise ValueError(f"context {_ctx_text(ctx, size)!r} given again "
                                         f"(first on line {rows[v][0]})")
                    if len(probs) != size:
                        raise ValueError(f"expected {size} probabilities")
                    rows[v] = lineno, _checked_rows(np.asarray([float(p) for p in probs]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if size is None or order is None:
            raise ValueError("source file must declare alphabet size and order")
        if initial is not None:
            try:
                if initial.size != size ** order:
                    raise ValueError(f"expected {size ** order} initial probabilities")
                _checked_initial(initial)
            except ValueError as exc:
                raise ValueError(f"line {declared['initial']}: {exc}") from None
        # the first context without a row, found before the table is built,
        # so a large declared order costs no more than the rows given
        missing = next((v for v in range(size ** order) if v not in rows), None)
        if missing is not None:
            ctx = _ctx_text(_ctx_digits(missing, size, order), size)
            raise ValueError(f"conditional table is missing context {ctx!r}")
        table = np.array([rows[v][1] for v in range(len(rows))])
        return cls(Alphabet.of_size(size), order, table, initial=initial)

    @classmethod
    def from_file(cls, path) -> "MarkovSource":
        with open(path, "r", encoding="utf-8-sig") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        lines = [f"alphabet {self.alphabet.size}", f"order {self.order}"]
        if self.order:
            lines.append("initial " + " ".join(repr(float(p)) for p in self.initial))
        size = self.alphabet.size
        for v in range(size ** self.order):
            ctx = _ctx_text(_ctx_digits(v, size, self.order), size)
            probs = " ".join(repr(float(p)) for p in self.table[v])
            lines.append(f"{ctx} {probs}" if ctx else probs)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Error measurement


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    trials: int


def avg_kl_error(truth: MarkovSource, measure_log2prob, t: int,
                 trials: int = 200, seed: int = 0) -> MonteCarloEstimate:
    """Monte Carlo per-letter log-loss redundancy of an estimator.

    Samples sequences of length t from `truth` and averages
    (log2 truth(x) - log2 estimate(x)) / t.  A zero-probability estimate
    on sampled data yields +inf.
    """
    rng = np.random.default_rng(seed)
    vals = np.empty(trials)
    for i in range(trials):
        x = truth.sample(t, rng)
        est = measure_log2prob(x)
        if est == -math.inf:
            return MonteCarloEstimate(math.inf, math.nan, trials)
        vals[i] = (truth.log2prob(x) - est) / t
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.nan
    return MonteCarloEstimate(float(vals.mean()), stderr, trials)
