"""The code/measure bridge: codelength providers and an arithmetic coder.

A codelength provider is a named function from sequences to bit counts
for the hypothesis tests: `measure_provider` wraps a measure as its ideal
codelength -log2 mu (real valued; `ideal_r_provider` is the mixture's),
`arithmetic_provider` counts the bits the adaptive arithmetic coder
emits (whole bits), and `external_provider` counts the output of a
general-purpose compressor run as a subprocess.  The container header
names one of three coding models: `UniformModel`, `KtState` or the mixture.
"""

from __future__ import annotations

import math
import shlex
import struct
import subprocess
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable

import numpy as np

from .estimators import (
    DEFAULT_MAX_EXPLICIT_ORDER,
    KtState,
    MixtureEstimator,
    r_log2prob,
)
from .seqmodel import Alphabet, MultiSample, SymbolSeq, as_sample_arrays

__all__ = [
    "CodelengthProvider",
    "ExternalCompressor",
    "MAGIC",
    "UniformModel",
    "arithmetic_decode",
    "arithmetic_encode",
    "arithmetic_provider",
    "compress_container",
    "decompress_container",
    "external_provider",
    "ideal_r_provider",
    "measure_provider",
]


# ---------------------------------------------------------------------------
# Providers


@dataclass(frozen=True)
class CodelengthProvider:
    """A function from sequences to codelengths in bits, and the name
    echoed in reports."""

    name: str
    _fn: Callable = field(repr=False)

    def codelength(self, x) -> float:
        return float(self._fn(x))


def measure_provider(measure_log2prob, name: str) -> CodelengthProvider:
    """The ideal codelength -log2 mu(x) of a strictly positive measure, in
    (real-valued) bits."""

    def fn(x):
        lp = measure_log2prob(x)
        if lp == -math.inf:
            raise ValueError("measure assigns probability zero; not an admissible code")
        return -lp

    return CodelengthProvider(name, fn)


def ideal_r_provider(max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                     ) -> CodelengthProvider:
    """Ideal codelength of the order-weighted mixture (the default provider)."""
    return measure_provider(lambda x: r_log2prob(x, max_explicit_order), "ideal-r")


def arithmetic_provider(max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                        ) -> CodelengthProvider:
    """Actual emitted-bit count of the arithmetic coder driven by a fresh
    mixture estimator per call (whole bits)."""

    def fn(x):
        return arithmetic_encode(x, MixtureEstimator(x.alphabet, max_explicit_order))[1]

    return CodelengthProvider("arithmetic", fn)


def external_provider(command: str) -> CodelengthProvider:
    return CodelengthProvider(f"external:{command}", ExternalCompressor(command).codelength)


# ---------------------------------------------------------------------------
# External compressors


@dataclass(frozen=True)
class ExternalCompressor:
    """A general-purpose compressor reading stdin and writing stdout.

    The codelength of a sequence is 8 times the compressed byte count,
    container overhead included (never subtracted: overhead only makes
    rejection harder, so the tests stay conservative).
    """

    command: str

    def compress(self, payload: bytes) -> bytes:
        try:
            proc = subprocess.run(
                shlex.split(self.command),
                input=payload,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                check=True,
            )
        except FileNotFoundError as exc:
            raise OSError(f"external compressor not found: {self.command!r}") from exc
        except subprocess.CalledProcessError as exc:
            raise OSError(
                f"external compressor failed (exit {exc.returncode}): {self.command!r}"
            ) from exc
        return proc.stdout

    def codelength(self, x) -> float:
        if x.lengths.size > 1:
            raise ValueError("external compressors are defined on single sequences only")
        if x.alphabet.size > 256:
            raise ValueError("external compressors support alphabets up to 256 symbols")
        payload = x.symbols.astype(np.uint8).tobytes()
        return 8.0 * len(self.compress(payload))


# ---------------------------------------------------------------------------
# Adaptive arithmetic coder (62-bit range registers, carry via pending bits)

_PRECISION = 62
_FULL = 1 << _PRECISION
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREE_QUARTERS = _HALF + _QUARTER
# Conditional probabilities are quantized onto this grid, which floors
# every symbol at roughly 2^-60 so the coder always makes progress.  The
# per-step model perturbation is below 2^-59.
_FREQ_BITS = 60


def _cumulative_freqs(probs) -> list[int]:
    """Quantize conditional probabilities to integer frequencies.

    Probabilities are normalized first (guarding against float sums a few
    ulps above one), every symbol gets at least one count, and the margin
    keeps totals strictly below the quarter range so subranges never
    collapse.  Deterministic, so encoder and decoder derive identical
    tables from the same model state.  The total is summed left to right
    by hand: the built-in sum() compensates from Python 3.12 on, so the
    tables, and the payload bytes, would depend on the interpreter.
    """
    probs = probs.tolist()
    total = 0.0
    for p in probs:
        total += p
    scale = (1 << _FREQ_BITS) - (len(probs) << 10)
    cum = [0]
    acc = 0
    for p in probs:
        acc += 1 + int(p / total * scale)
        cum.append(acc)
    return cum


class _RangeCoder:
    """The range [low, high] of both directions (Witten, Neal & Cleary 1987).

    Without a payload it encodes: each shift of the range emits a bit or,
    straddling the midpoint, counts a pending bit.  With a payload it
    decodes: `value` holds the next 62 payload bits (zeros past the end)
    and each shift reads one more.
    """

    def __init__(self, payload: bytes | None = None):
        self.low = 0
        self.high = _FULL - 1
        self.decoding = payload is not None
        if self.decoding:
            bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).tolist()
            self._bits = chain(bits, repeat(0))
            self.value = 0
            for _ in range(_PRECISION):
                self.value = (self.value << 1) | next(self._bits)
        else:
            self.bits: list[int] = []
            self.pending = 0

    def code(self, cum: list[int], a: int) -> int:
        """Narrow the range to symbol `a` (decoding: the symbol `value`
        falls in) and return that symbol."""
        total = cum[-1]
        span = self.high - self.low + 1
        if self.decoding:
            target = ((self.value - self.low + 1) * total - 1) // span
            a = bisect_right(cum, target) - 1
        self.high = self.low + span * cum[a + 1] // total - 1
        self.low = self.low + span * cum[a] // total
        while True:
            if self.high < _HALF:
                bit, shift = 0, 0
            elif self.low >= _HALF:
                bit, shift = 1, _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTERS:
                bit, shift = None, _QUARTER
            else:
                return a
            self.low = (self.low - shift) << 1
            self.high = ((self.high - shift) << 1) | 1
            if self.decoding:
                self.value = ((self.value - shift) << 1) | next(self._bits)
            elif bit is None:
                self.pending += 1
            else:
                self._emit(bit)

    def _emit(self, bit: int) -> None:
        self.bits.append(bit)
        self.bits.extend([bit ^ 1] * self.pending)
        self.pending = 0

    def finish(self) -> tuple[bytes, int]:
        """Encoder: flush, and return (payload bytes, payload bit count)."""
        self.pending += 1
        self._emit(0 if self.low < _QUARTER else 1)
        return np.packbits(np.array(self.bits, dtype=np.uint8)).tobytes(), len(self.bits)


def _code(coder: _RangeCoder, model, samples: list) -> list:
    """The per-symbol step of both directions, sample after sample.

    The encoder's symbols are taken from `samples`; the decoder writes
    its symbols over the placeholders in `samples`.
    """
    for j, syms in enumerate(samples):
        if j:
            model.new_sample()
        for i, a in enumerate(syms):
            a = syms[i] = coder.code(_cumulative_freqs(model.conditional_probs()), a)
            model.append(a)
    return samples


def arithmetic_encode(x, model) -> tuple[bytes, int]:
    """Encode a sequence (or multi-sample) with a sequential model.

    Returns (payload bytes, payload bit count).  The model is advanced in
    place; pass a fresh instance.  For multi-samples the model's sample
    boundary is reset between samples and the decoder must be driven with
    the same lengths.
    """
    _, samples = as_sample_arrays(x)
    coder = _RangeCoder()
    _code(coder, model, [arr.tolist() for arr in samples])
    return coder.finish()


def arithmetic_decode(payload: bytes, lengths, model, alphabet: Alphabet):
    """Decode `lengths` symbols per sample from an arithmetic payload.

    The model must be a fresh instance of the one used for encoding;
    disagreement produces undetected garbage.
    """
    if isinstance(lengths, int):
        lengths = [lengths]
    samples = _code(_RangeCoder(payload), model,
                    [np.empty(int(t), dtype=np.int64) for t in lengths])
    out = [SymbolSeq(alphabet, syms) for syms in samples]
    return out[0] if len(out) == 1 else MultiSample(out)


class UniformModel:
    """Memoryless uniform conditionals; the trivial coding model."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._probs = np.full(alphabet.size, 1.0 / alphabet.size)

    def conditional_probs(self):
        return self._probs

    def append(self, a):
        pass

    def new_sample(self):
        pass


# ---------------------------------------------------------------------------
# Container format: magic, alphabet size (u16 BE), length (u64 BE),
# model id byte, then the arithmetic payload zero-padded to a byte.  The
# model id alone picks the decoding model; `kt` is order 0, since the
# header stores no order.

MAGIC = b"UCT1"

# model name -> (header id, fresh model for an alphabet and a max order)
_MODELS = {
    "uniform": (0, lambda alphabet, _: UniformModel(alphabet)),
    "kt": (2, lambda alphabet, _: KtState(alphabet, 0)),
    "r": (3, MixtureEstimator),
}
_ID_MODELS = {model_id: name for name, (model_id, _) in _MODELS.items()}


def compress_container(x: SymbolSeq, model_name: str = "r",
                       max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                       ) -> tuple[bytes, int]:
    """Encode a single sequence into the framed container format with the
    model `model_name` ("uniform", "kt" or "r") names.

    Returns (container bytes, payload bit count).
    """
    if isinstance(x, MultiSample):
        raise ValueError("the container format holds a single sequence")
    if model_name not in _MODELS:
        raise ValueError(f"no container model named {model_name!r}")
    if x.alphabet.size > 0xFFFF:  # the u16 size field
        raise ValueError("the container format holds alphabets of at most 65535 "
                         f"symbols, got {x.alphabet.size}")
    model_id, new_model = _MODELS[model_name]
    payload, nbits = arithmetic_encode(x, new_model(x.alphabet, max_explicit_order))
    header = struct.pack(">HQB", x.alphabet.size, len(x), model_id)
    return MAGIC + header + payload, nbits


def decompress_container(data: bytes, alphabet: Alphabet | None = None,
                         max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER):
    """Decode a container produced by compress_container, with the model
    its header names.

    Returns (SymbolSeq, header dict).  Header corruption raises ValueError
    naming the offending byte position; payload corruption is undetectable
    by construction.
    """
    if data[:4] != MAGIC:
        raise ValueError("bad container magic at byte 0")
    if len(data) < 15:
        raise ValueError(f"truncated container header at byte {len(data)}")
    size, length, model_id = struct.unpack(">HQB", data[4:15])
    if size < 1:
        raise ValueError("bad alphabet size at byte 4")
    if model_id not in _ID_MODELS:
        raise ValueError(f"unknown model id {model_id} at byte 14")
    if alphabet is None:
        alphabet = Alphabet.of_size(size)
    elif alphabet.size != size:
        raise ValueError(
            f"container alphabet size {size} differs from supplied {alphabet.size}"
        )
    name = _ID_MODELS[model_id]
    model = _MODELS[name][1](alphabet, max_explicit_order)
    seq = arithmetic_decode(data[15:], int(length), model, alphabet)
    header = {
        "alphabet_size": int(size),
        "length": int(length),
        "model": name,
    }
    return seq, header
