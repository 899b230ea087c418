"""Alphabets, symbol sequences, multi-sample collections and the
window-counting kernel.

Symbols are dense integer indices and an alphabet is, to the numeric
core, its size; string labels exist only at the I/O boundary, where an
alphabet built by size makes its default labels on first use.  All
statistics are sliding-window based and windows never straddle sample
boundaries, so the counts of several independent samples are the sums
of the per-sample counts.  Every batch count in the package comes from
:func:`window_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "MultiSample",
    "SymbolSeq",
    "WindowCounts",
    "as_sample_arrays",
    "count_occurrences",
    "pair_counts",
    "window_counts",
]


class AlphabetMismatchError(ValueError):
    """Sequences or words over different alphabets were combined."""


def _default_labels(size: int) -> tuple[str, ...]:
    return tuple(map(str, range(size)))


@dataclass(frozen=True, init=False)
class Alphabet:
    """Finite symbol set: the indices 0..size-1.

    The numeric core sees only the size.  Labels serve parsing and
    reporting: explicit ones are kept, and an alphabet made by `of_size`
    makes its default labels "0".."size-1" and the label index on first
    use.  Explicit labels equal to the default ones make the same
    alphabet as `of_size`.

    A single-letter alphabet is allowed: it arises naturally from trivial
    one-cell quantizers and every formula degrades gracefully to it.
    """

    size: int
    _custom: tuple[str, ...] | None  # explicit labels other than the default

    def __init__(self, labels: tuple[str, ...]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("alphabet labels must be pairwise distinct")
        custom = None if labels == _default_labels(len(labels)) else labels
        self._set(len(labels), custom)

    def _set(self, size: int, custom) -> None:
        if size < 1:
            raise ValueError("alphabet must contain at least one symbol")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_custom", custom)

    @classmethod
    def of_size(cls, size: int) -> "Alphabet":
        """Alphabet of `size` symbols with default labels; stores no label."""
        alphabet = cls.__new__(cls)
        alphabet._set(int(size), None)
        return alphabet

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return self._custom or _default_labels(self.size)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def _by_code_point(self) -> np.ndarray | None:
        """Symbol index of each code point up to the labels' highest, -1
        for the others and at the one past it; None unless every label is
        one character."""
        if any(len(label) != 1 for label in self.labels):
            return None
        points = [ord(label) for label in self.labels]
        table = np.full(max(points) + 2, -1, dtype=np.int64)
        table[points] = np.arange(self.size)
        return table

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise AlphabetMismatchError(f"unknown symbol label {label!r}") from None


def _code_points(text: str) -> np.ndarray:
    """The code points of `text`, one uint32 each."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _check_same_alphabet(a: Alphabet, b: Alphabet) -> None:
    if a != b:
        raise AlphabetMismatchError(f"alphabets differ: {a!r} vs {b!r}")


@dataclass(eq=False)
class SymbolSeq:
    """A finite sequence of symbol indices over one alphabet: the
    one-sample case of the multi-sample layout, whose `lengths` is its
    one length."""

    alphabet: Alphabet
    symbols: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.symbols, dtype=np.int64).reshape(-1)
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise ValueError("symbol index out of alphabet range")
        self.symbols = arr

    def __len__(self) -> int:
        return int(self.symbols.size)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([self.symbols.size], dtype=np.int64)

    @classmethod
    def _of_checked(cls, alphabet: Alphabet, symbols: np.ndarray) -> "SymbolSeq":
        """A sequence around int64 `symbols` already known to lie in range."""
        seq = cls.__new__(cls)
        seq.alphabet, seq.symbols = alphabet, symbols
        return seq

    @classmethod
    def from_labels(cls, alphabet: Alphabet, tokens) -> "SymbolSeq":
        """The sequence of the labels `tokens`.  A str over one-character
        labels is mapped by its code points in one table lookup; other
        tokens are looked up one at a time."""
        table = alphabet._by_code_point if isinstance(tokens, str) else None
        if table is not None:
            # code points past the table clip to its last entry, -1
            symbols = table.take(_code_points(tokens).astype(np.int64), mode="clip")
            if symbols.size and symbols.min() < 0:
                bad = tokens[int(np.argmax(symbols < 0))]
                raise AlphabetMismatchError(f"unknown symbol label {bad!r}")
            return cls._of_checked(alphabet, symbols)
        index = alphabet._index
        try:
            symbols = [index[t] for t in tokens]
        except KeyError as exc:
            raise AlphabetMismatchError(f"unknown symbol label {exc.args[0]!r}") from None
        return cls(alphabet, np.array(symbols, dtype=np.int64))

    def to_labels(self) -> list[str]:
        labels = self.alphabet.labels
        return [labels[i] for i in self.symbols.tolist()]

    def extended(self, word) -> "SymbolSeq":
        """New sequence with `word` (indices or a SymbolSeq) appended."""
        extra = _coerce_word(self.alphabet, word)
        return SymbolSeq._of_checked(self.alphabet, np.concatenate([self.symbols, extra]))


class MultiSample:
    """Several independent samples from one source, evaluated jointly.

    Stored as one flat int64 array, `symbols`, sample after sample, and
    the samples' `lengths`; window statistics never cross a boundary.
    The samples are copied in, so changing an input afterwards leaves the
    multi-sample unchanged; `samples` gives views of the flat array.
    """

    def __init__(self, samples):
        samples = list(samples)
        if not samples:
            raise ValueError("multi-sample must contain at least one sample")
        for s in samples[1:]:
            _check_same_alphabet(samples[0].alphabet, s.alphabet)
        self.alphabet: Alphabet = samples[0].alphabet
        self.symbols = np.concatenate([s.symbols for s in samples])
        self.lengths = np.array([s.symbols.size for s in samples], dtype=np.int64)

    @property
    def samples(self) -> list[SymbolSeq]:
        """Views of the flat array, one per sample."""
        return [SymbolSeq._of_checked(self.alphabet, arr)
                for arr in as_sample_arrays(self)[1]]

    @property
    def total_length(self) -> int:
        return int(self.symbols.size)

    def __len__(self) -> int:
        return self.total_length

    def extended(self, word) -> "MultiSample":
        """New multi-sample with `word` appended as an additional sample."""
        extra = _coerce_word(self.alphabet, word)
        out = MultiSample.__new__(MultiSample)
        out.alphabet = self.alphabet
        out.symbols = np.concatenate([self.symbols, extra])
        out.lengths = np.append(self.lengths, extra.size)
        return out


def _layout(x) -> tuple[int, np.ndarray, np.ndarray]:
    """The alphabet size, the flat symbol array and the sample lengths of
    a SymbolSeq or MultiSample."""
    if not isinstance(x, (SymbolSeq, MultiSample)):
        raise TypeError(f"expected SymbolSeq or MultiSample, got {type(x).__name__}")
    return x.alphabet.size, x.symbols, x.lengths


def as_sample_arrays(x) -> tuple[Alphabet, list[np.ndarray]]:
    """A SymbolSeq or MultiSample as (alphabet, its samples' arrays), views
    of the flat array."""
    _, flat, lengths = _layout(x)
    bounds = [0, *np.cumsum(lengths).tolist()]
    return x.alphabet, [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _coerce_word(x_alphabet: Alphabet, v) -> np.ndarray:
    if isinstance(v, SymbolSeq):
        _check_same_alphabet(x_alphabet, v.alphabet)
        return v.symbols
    arr = np.asarray(v, dtype=np.int64).reshape(-1)
    if arr.size and (arr.min() < 0 or arr.max() >= x_alphabet.size):
        raise AlphabetMismatchError("word symbol outside the sequence alphabet")
    return arr


# ---------------------------------------------------------------------------
# Window counts

# Codes stay below this bound, so their int64 arithmetic cannot overflow.
_CODE_LIMIT = 2 ** 62
# Windows are counted by a tally, not a sort, when their codes lie below
# this many times the number of windows.
_TALLY_RATIO = 2


class WindowCounts(NamedTuple):
    """Pooled counts of the (m+1)-windows of one order m.

    Distinct windows come in lexicographic order, so the windows sharing a
    length-m context are adjacent and the contexts are in lexicographic
    order too.
    """

    codes: np.ndarray    # code of every window, sample after sample
    windows: np.ndarray  # distinct codes, ascending
    pair: np.ndarray     # nu(v a) of each distinct window v a
    context: np.ndarray  # nu-bar(v) of each distinct context v
    starts: np.ndarray   # index in `windows` of each context's first window


def window_counts(x, m: int) -> WindowCounts:
    """Pooled counts of the (m+1)-windows of x, grouped by length-m context.

    A window's code is its base-|A| value, so codes sort lexicographically
    and a window's context code is code // |A|.  Codes are built over the
    flat array of every sample by prefix doubling, as in suffix-array
    construction: the codes of the length-L words at i and i + L make the
    length-2L word at i, and one multiply-add appends a symbol, so order m
    takes about log2(m) + popcount(m) passes over the data.  Before a step
    could pass 2^62, the codes so far are replaced by their dense ranks,
    which keeps their order, so every alphabet size is counted exactly on
    the same path.  Windows that straddle a sample boundary are dropped by
    one mask.  Codes below twice the number of windows are counted by a
    tally (`np.bincount`), larger ones by a sort; both give the distinct
    windows in ascending order.
    """
    size, flat, lengths = _layout(x)
    return _count(flat, lengths, size, m)


def _count(flat: np.ndarray, lengths: np.ndarray, size: int, m: int) -> WindowCounts:
    """window_counts of the samples of `lengths` symbols laid end to end in `flat`."""
    codes, bound = _window_codes(flat, lengths, size, m)
    if not codes.size:
        empty = np.zeros(0, dtype=np.int64)
        return WindowCounts(empty, empty, empty, empty, empty)
    if bound <= _TALLY_RATIO * codes.size:
        tally = np.bincount(codes, minlength=bound)
        windows = np.flatnonzero(tally)
        pair = tally[windows]
    else:
        windows, pair = np.unique(codes, return_counts=True)
    ctx = windows // size
    starts = np.flatnonzero(np.concatenate(([True], ctx[1:] != ctx[:-1])))
    return WindowCounts(codes, windows, pair, np.add.reduceat(pair, starts), starts)


def _window_codes(flat: np.ndarray, lengths: np.ndarray, size: int,
                  m: int) -> tuple[np.ndarray, int]:
    """Code of every (m+1)-window inside a sample, sample after sample, and
    a bound above every code: the `codes` of `_count`, without its tally."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    n = flat.size - m  # windows starting at every position, boundaries included
    if n <= 0:
        return np.zeros(0, dtype=np.int64), size
    # codes[i] is the code, below `bound`, of the `length` symbols from i.
    # The length follows the binary digits of m from the top: it doubles
    # at each further digit and grows by one symbol at each 1, which makes
    # the length-m contexts; the last step (j = -1) appends the window's
    # last symbol, so a window's context code is code // size.
    codes = flat.astype(np.int64)  # the 1-symbol words; a copy, the steps work in place
    spare = np.empty_like(codes) if m > 1 else None
    bound, length = size, 1
    for j in range(int(m).bit_length() - 2, -2, -1):
        if j >= 0:  # the word at i, then the word at i + length
            if bound > _CODE_LIMIT // bound:
                codes, bound = _ranked(codes)
            k = codes.size - length
            np.multiply(codes[:k], bound, out=spare[:k])
            np.add(spare[:k], codes[length:], out=spare[:k])
            codes, spare = spare[:k], codes
            bound *= bound
            length *= 2
        if j < 0 or m >> j & 1:  # one more symbol
            if bound > _CODE_LIMIT // size:
                codes, bound = _ranked(codes)
            codes = codes[:-1]
            codes *= size
            codes += flat[length:]
            bound *= size
            length += 1
    if lengths.size > 1:  # drop the windows that run past their sample's end
        tail = np.minimum(lengths, m)  # the last positions, whose windows are cut short
        keep = np.repeat(np.tile([True, False], lengths.size),
                         np.column_stack([lengths - tail, tail]).ravel())
        codes = codes[keep[:n]]
    return codes, bound


def _ranked(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of the codes, which keep their order, and their bound."""
    ranks, inverse = np.unique(codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), ranks.size  # intp may be 32-bit


def pair_counts(x, k: int) -> dict[tuple, np.ndarray]:
    """Counts of (k+1)-windows grouped by their length-k context prefix."""
    alphabet, samples = as_sample_arrays(x)
    counts = window_counts(x, k)
    table: dict[tuple, np.ndarray] = {}
    if counts.codes.size:
        rows = np.concatenate([np.lib.stride_tricks.sliding_window_view(arr, k + 1)
                               for arr in samples if arr.size > k])
        seen = np.empty(counts.windows.size, dtype=np.int64)  # a row of each window
        seen[np.searchsorted(counts.windows, counts.codes)] = np.arange(counts.codes.size)
        for (*ctx, a), n in zip(rows[seen].tolist(), counts.pair):
            table.setdefault(tuple(ctx), np.zeros(alphabet.size, dtype=np.int64))[a] = n
    return table


def count_occurrences(x, v) -> int:
    """Number of sliding windows equal to the word `v`, summed per sample.

    A sample shorter than `v` contributes no window.
    """
    size, flat, lengths = _layout(x)
    word = _coerce_word(x.alphabet, v)
    if not word.size:
        raise ValueError("word must be nonempty")
    # the word joins as one more sample; its only window is the last one
    counts = _count(np.concatenate([flat, word]), np.append(lengths, word.size), size,
                    word.size - 1)
    return int(counts.pair[np.searchsorted(counts.windows, counts.codes[-1])]) - 1
