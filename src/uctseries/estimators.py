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

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .seqmodel import (
    Alphabet,
    AlphabetMismatchError,
    MultiSample,
    SymbolSeq,
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
    arr = np.asarray(list(terms), dtype=float)
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
    nu = window_counts(x, 0).pair  # unseen symbols add gammaln(1) = 0
    val = gammaln(nu + 1.0).sum() + gammaln(size) - gammaln(len(x) + size)
    return float(val / _LN2)


# ---------------------------------------------------------------------------
# Add-half estimator of fixed Markov order (batch evaluation)


def kt_log2prob(x, m: int) -> LogProb:
    """Exact log2 probability of the order-m add-half estimator.

    The first min(m, t_i) letters of every sample are priced at 1/|A|;
    the rest comes from the pooled window counts through log-gamma.
    """
    alphabet, samples = as_sample_arrays(x)
    size = alphabet.size
    counts = window_counts(x, m)
    prefix_bits = sum(min(m, arr.size) for arr in samples) * math.log2(size)
    pair, ctx = counts.pair, counts.context
    num = gammaln(pair + 0.5).sum() - pair.size * gammaln(0.5)
    den = gammaln(ctx + size / 2.0).sum() - ctx.size * gammaln(size / 2.0)
    return float(-prefix_bits + (num - den) / _LN2)


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
    of every order.  Each node owns one row of symbol counts.  An order
    whose context is unseen, or not yet complete in the current sample,
    is uniform.  Conditionals are maintained through posterior component
    weights, so no per-order probability ever underflows.
    """

    def __init__(self, alphabet: Alphabet,
                 max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER):
        if max_explicit_order < 0:
            raise ValueError("max_explicit_order must be nonnegative")
        self.alphabet = alphabet
        self.max_explicit_order = max_explicit_order
        # posterior weights: the uniform tail first, then orders 0, 1, ...
        self._w = np.array(
            [order_weight_tail(max_explicit_order + 2)]
            + [order_weight(i + 1) for i in range(max_explicit_order + 1)]
        )
        self._child: dict[tuple[int, int], int] = {}
        self._counts = np.zeros((64, alphabet.size))  # doubled when full
        self._hist: list[int] = []  # last max_explicit_order symbols of the sample
        self.log2prob: LogProb = 0.0
        self._max_sample_length = 0
        self._pos = 0

    @property
    def truncated(self) -> bool:
        return self._max_sample_length - 1 > self.max_explicit_order

    def _path(self) -> list[int]:
        """Nodes of the current context of orders 0, 1, ... while seen."""
        node, path = 0, [0]
        for s in reversed(self._hist):
            node = self._child.get((node, s))
            if node is None:
                break
            path.append(node)
        return path

    def _terms(self, path: list[int], cols: slice) -> np.ndarray:
        """Weighted conditionals of the symbols in `cols`: row 0 is the
        uniform tail's share, row i + 1 order i's; the rows sum to R's."""
        size = self.alphabet.size
        counts = self._counts[path]
        totals = counts.sum(axis=1, keepdims=True)  # exact: integer counts
        cond = (counts[:, cols] + 0.5) / (totals + size / 2.0)
        n = len(path) + 1
        terms = np.empty((self._w.size, cond.shape[1]))
        terms[0] = self._w[0] / size
        terms[1:n] = self._w[1:n, None] * cond
        terms[n:] = self._w[n:, None] * (1.0 / size)
        return terms

    def conditional_probs(self) -> np.ndarray:
        terms = self._terms(self._path(), slice(None))
        return np.add.accumulate(terms, axis=0)[-1]

    def conditional_log2prob(self, a: int) -> LogProb:
        return float(np.log2(self.conditional_probs()[int(a)]))

    def append(self, a: int) -> None:
        a = int(a)
        path = self._path()
        joint = self._terms(path, slice(a, a + 1))[:, 0]
        step = np.add.accumulate(joint)[-1]
        self.log2prob += math.log2(step)
        self._w = joint / step
        # contexts first completed or first seen now get their nodes
        node = path[-1]
        for s in reversed(self._hist[:len(self._hist) - len(path) + 1]):
            self._child[(node, s)] = node = self._new_node()
            path.append(node)
        self._counts[path, a] += 1.0
        self._hist.append(a)
        if len(self._hist) > self.max_explicit_order:
            del self._hist[0]
        self._pos += 1
        self._max_sample_length = max(self._max_sample_length, self._pos)

    def _new_node(self) -> int:
        node = len(self._child) + 1
        if node == len(self._counts):
            grown = np.zeros((2 * node, self.alphabet.size))  # pages stay untouched
            grown[:node] = self._counts
            self._counts = grown
        return node

    def new_sample(self) -> None:
        self._hist = []
        self._pos = 0

    def consume(self, x) -> "MixtureEstimator":
        _, samples = as_sample_arrays(x)
        for j, arr in enumerate(samples):
            if j:
                self.new_sample()
            for a in arr:
                self.append(int(a))
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
        self._w = np.zeros(order + 2)
        self._w[-1] = 1.0


# ---------------------------------------------------------------------------
# Mixture measure, batch evaluation


def r_log2prob(x, max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER) -> LogProb:
    """log2 of the order-weighted mixture probability of x.

    Orders above min(max_explicit_order, longest sample - 1) all reduce to
    the uniform measure |A|^-t, so their weighted sum has a closed form
    and the result is exact whenever max_explicit_order is not binding.
    """
    if max_explicit_order < 0:
        raise ValueError("max_explicit_order must be nonnegative")
    alphabet, samples = as_sample_arrays(x)
    t = sum(arr.size for arr in samples)
    if t == 0:
        return 0.0
    longest = max(arr.size for arr in samples)
    explicit = min(max_explicit_order, longest - 1)
    terms = [
        math.log2(order_weight(i + 1)) + kt_log2prob(x, i)
        for i in range(explicit + 1)
    ]
    terms.append(
        math.log2(order_weight_tail(explicit + 2)) - t * math.log2(alphabet.size)
    )
    return log2_sum(terms)


def r_cond_log2prob(word, x,
                    max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER) -> LogProb:
    """log2 of the mixture conditional probability of `word` given x.

    For a plain sequence the word extends it; for a multi-sample the word
    is evaluated as an additional independent sample.
    """
    word = np.atleast_1d(np.asarray(word, dtype=np.int64))
    return r_log2prob(x.extended(word), max_explicit_order) - r_log2prob(
        x, max_explicit_order
    )


# ---------------------------------------------------------------------------
# Side information over a product alphabet


@dataclass(frozen=True)
class PairAlphabet:
    """Product alphabet X x Y with bijective index pairing."""

    x_alphabet: Alphabet
    y_alphabet: Alphabet

    @property
    def product(self) -> Alphabet:
        labels = tuple(
            f"{lx},{ly}"
            for lx in self.x_alphabet.labels
            for ly in self.y_alphabet.labels
        )
        return Alphabet(labels)

    def pair_index(self, ix: int, iy: int) -> int:
        if not (0 <= ix < self.x_alphabet.size and 0 <= iy < self.y_alphabet.size):
            raise AlphabetMismatchError("pair component out of range")
        return ix * self.y_alphabet.size + iy


def side_info_cond_log2probs(pair_alphabet: PairAlphabet, history, y_next: int,
                             max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                             ) -> np.ndarray:
    """log2 conditionals of the next x symbol given paired history and y.

    `history` is an iterable of (x, y) index pairs, fed to a fresh mixture
    over the product alphabet.  The returned vector is normalized over x.
    """
    estimator = MixtureEstimator(pair_alphabet.product, max_explicit_order)
    for ix, iy in history:
        estimator.append(pair_alphabet.pair_index(ix, iy))
    cond = estimator.conditional_probs()
    ny = pair_alphabet.y_alphabet.size
    column = np.asarray(
        [cond[ix * ny + int(y_next)] for ix in range(pair_alphabet.x_alphabet.size)]
    )
    return np.log2(column / column.sum())


# ---------------------------------------------------------------------------
# Fully specified sources (truth models, test nulls, simulation inputs)


def _ctx_index(ctx, size: int) -> int:
    idx = 0
    for s in ctx:
        idx = idx * size + int(s)
    return idx


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
        tbl = np.asarray(table, dtype=float).reshape(size ** self.order, size)
        if np.any(tbl < 0):
            raise ValueError("conditional probabilities must be nonnegative")
        if np.abs(tbl.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("conditional table rows must sum to 1 (tol 1e-9)")
        self.table = tbl
        if initial is None:
            self.initial = self._stationary()
        else:
            self.initial = np.asarray(initial, dtype=float).reshape(size ** self.order)
            if abs(self.initial.sum() - 1.0) > 1e-9 or np.any(self.initial < 0):
                raise ValueError("initial distribution must be a probability vector")

    # -- construction helpers

    @classmethod
    def iid(cls, alphabet: Alphabet, probs) -> "MarkovSource":
        return cls(alphabet, 0, np.asarray(probs, dtype=float).reshape(1, -1))

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "MarkovSource":
        return cls.iid(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))

    def _context_index(self, ctx) -> int:
        return _ctx_index(ctx, self.alphabet.size)

    def _stationary(self) -> np.ndarray:
        size = self.alphabet.size
        n = size ** self.order
        if self.order == 0:
            return np.ones(1)
        trans = np.zeros((n, n))
        for v in range(n):
            nxt = (v * size) % n
            for a in range(size):
                trans[nxt + a, v] += self.table[v, a]
        vals, vecs = np.linalg.eig(trans)
        k = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, k])
        pi = np.clip(pi, 0.0, None)
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
            p = self.initial.reshape([size] * self.order)
            axes = tuple(range(n, self.order))
            marg = p.sum(axis=axes) if axes else p
            with np.errstate(divide="ignore"):
                return np.log2(marg.reshape(-1))
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
        """Exact log2 probability; independent samples multiply."""
        alphabet, samples = as_sample_arrays(x)
        if alphabet.size != self.alphabet.size:
            raise AlphabetMismatchError("sequence alphabet size differs from source")
        total = 0.0
        size = self.alphabet.size
        with np.errstate(divide="ignore"):
            logt = np.log2(self.table)
        for arr in samples:
            t = arr.size
            head = min(t, self.order)
            if head:
                blocks = self._block_log2probs(head)
                total += float(blocks[self._context_index(arr[:head])])
            if t > self.order:
                m = self.order
                if m:
                    powers = size ** np.arange(m - 1, -1, -1, dtype=np.int64)
                    ctx = np.lib.stride_tricks.sliding_window_view(arr[:-1], m) @ powers
                else:
                    ctx = np.zeros(t, dtype=np.int64)
                total += float(logt[ctx, arr[m:]].sum())
        return total

    def conditional(self, ctx) -> np.ndarray:
        """Next-symbol distribution given at least `order` trailing symbols."""
        ctx = list(ctx)[-self.order:] if self.order else []
        return self.table[self._context_index(ctx)]

    # -- sampling

    def sample(self, t: int, rng) -> SymbolSeq:
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        size = self.alphabet.size
        out = np.empty(t, dtype=np.int64)
        if t == 0:
            return SymbolSeq(self.alphabet, out)
        if self.order == 0:
            out[:] = rng.choice(size, size=t, p=self.table[0])
            return SymbolSeq(self.alphabet, out)
        ctx = int(rng.choice(self.initial.size, p=self.initial))
        head = []
        rem = ctx
        for _ in range(self.order):
            head.append(rem % size)
            rem //= size
        head.reverse()
        n_head = min(t, self.order)
        out[:n_head] = head[:n_head]
        mod = size ** self.order
        cum_rows = [row.cumsum().tolist() for row in self.table]
        u = rng.random(max(t - self.order, 0)).tolist()
        for i in range(self.order, t):
            a = bisect.bisect_right(cum_rows[ctx], u[i - self.order])
            a = min(a, size - 1)  # guard against cumulative rounding at 1.0
            out[i] = a
            ctx = (ctx * size + a) % mod
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
        size = order = None
        rows: list[tuple[tuple, np.ndarray]] = []
        initial = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "alphabet":
                size = int(parts[1])
            elif parts[0] == "order":
                order = int(parts[1])
            elif parts[0] == "initial":
                initial = np.asarray([float(v) for v in parts[1:]])
            else:
                if size is None or order is None:
                    raise ValueError(
                        f"line {lineno}: alphabet and order must come first"
                    )
                if order == 0:
                    ctx_token, probs = "", parts
                else:
                    ctx_token, probs = parts[0], parts[1:]
                if len(ctx_token) != order:
                    raise ValueError(f"line {lineno}: context must have {order} symbols")
                ctx = tuple(int(c) for c in ctx_token)
                if any(c >= size for c in ctx):
                    raise ValueError(f"line {lineno}: context symbol out of range")
                if len(probs) != size:
                    raise ValueError(f"line {lineno}: expected {size} probabilities")
                rows.append((ctx, np.asarray([float(v) for v in probs])))
        if size is None or order is None:
            raise ValueError("source file must declare alphabet size and order")
        alphabet = Alphabet.of_size(size)
        table = np.full((size ** order, size), np.nan)
        for ctx, probs in rows:
            table[_ctx_index(ctx, size)] = probs
        if np.isnan(table).any():
            raise ValueError("conditional table is missing contexts")
        return cls(alphabet, order, table, initial=initial)

    @classmethod
    def from_file(cls, path) -> "MarkovSource":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        lines = [f"alphabet {self.alphabet.size}", f"order {self.order}"]
        if self.order:
            lines.append("initial " + " ".join(repr(float(p)) for p in self.initial))
        size = self.alphabet.size
        for v in range(size ** self.order):
            digits = []
            rem = v
            for _ in range(self.order):
                digits.append(str(rem % size))
                rem //= size
            ctx = "".join(reversed(digits))
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
