"""The code/measure bridge: codelength providers and an arithmetic coder.

A codelength provider turns sequences into bit counts for the hypothesis
tests.  Three kinds exist: ideal measure codelengths (-log2 mu, real
valued by default, optionally rounded up to whole bits), an adaptive
arithmetic coder driven by any sequential conditional-probability model,
and external general-purpose compressors invoked as subprocesses.
"""

from __future__ import annotations

import math
import shlex
import struct
import subprocess
from dataclasses import dataclass, field
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
    "arithmetic_decode",
    "arithmetic_encode",
    "arithmetic_provider",
    "compress_container",
    "container_header",
    "decompress_container",
    "external_codelength",
    "external_provider",
    "ideal_codelength",
    "ideal_r_provider",
    "measure_provider",
    "model_for_id",
    "uniform_iid_model",
]


# ---------------------------------------------------------------------------
# Providers


@dataclass(frozen=True)
class CodelengthProvider:
    """A function from sequences to codelengths in bits.

    `kind` is one of "ideal-measure", "arithmetic-coder" or
    "external-compressor"; `name` is the short label echoed in reports.
    With integer_lengths the (possibly real-valued) length is rounded up
    to whole bits for strict code semantics.
    """

    kind: str
    name: str
    _fn: Callable = field(repr=False)
    integer_lengths: bool = False

    def codelength(self, x) -> float:
        bits = self._fn(x)
        return float(math.ceil(bits)) if self.integer_lengths else float(bits)


def ideal_codelength(x, measure_log2prob) -> float:
    """-log2 mu(x) for a strictly positive measure, in (real-valued) bits."""
    lp = measure_log2prob(x)
    if lp == -math.inf:
        raise ValueError("measure assigns probability zero; not an admissible code")
    return -float(lp)


def measure_provider(measure_log2prob, name: str,
                     integer_lengths: bool = False) -> CodelengthProvider:
    return CodelengthProvider(
        kind="ideal-measure",
        name=name,
        _fn=lambda x: ideal_codelength(x, measure_log2prob),
        integer_lengths=integer_lengths,
    )


def ideal_r_provider(max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                     integer_lengths: bool = False) -> CodelengthProvider:
    """Ideal codelength of the order-weighted mixture (the default provider)."""
    return measure_provider(
        lambda x: r_log2prob(x, max_explicit_order),
        name="ideal-r",
        integer_lengths=integer_lengths,
    )


def arithmetic_provider(max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                        ) -> CodelengthProvider:
    """Actual emitted-bit count of the arithmetic coder driven by a fresh
    mixture estimator per call (integer bits)."""

    def fn(x):
        alphabet, _ = as_sample_arrays(x)
        _, nbits = arithmetic_encode(x, MixtureEstimator(alphabet, max_explicit_order))
        return float(nbits)

    return CodelengthProvider(kind="arithmetic-coder", name="arithmetic", _fn=fn)


def external_provider(command: str) -> CodelengthProvider:
    compressor = ExternalCompressor(command)
    return CodelengthProvider(
        kind="external-compressor",
        name=f"external:{command}",
        _fn=compressor.codelength,
    )


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
        if isinstance(x, MultiSample):
            if len(x.samples) > 1:
                raise ValueError(
                    "external compressors are defined on single sequences only"
                )
            x = x.samples[0]
        if x.alphabet.size > 256:
            raise ValueError("external compressors support alphabets up to 256 symbols")
        payload = x.symbols.astype(np.uint8).tobytes()
        return 8.0 * len(self.compress(payload))


def external_codelength(x, command: str) -> float:
    return ExternalCompressor(command).codelength(x)


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


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self._acc = 0
        self._n = 0
        self.nbits = 0

    def write(self, bit: int) -> None:
        self._acc = (self._acc << 1) | bit
        self._n += 1
        self.nbits += 1
        if self._n == 8:
            self.buf.append(self._acc)
            self._acc = 0
            self._n = 0

    def getvalue(self) -> bytes:
        if self._n:
            return bytes(self.buf) + bytes([self._acc << (8 - self._n)])
        return bytes(self.buf)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self) -> int:
        i, r = divmod(self.pos, 8)
        self.pos += 1
        if i >= len(self.data):
            return 0
        return (self.data[i] >> (7 - r)) & 1


def _cumulative_freqs(probs) -> list[int]:
    """Quantize conditional probabilities to integer frequencies.

    Probabilities are normalized first (guarding against float sums a few
    ulps above one), every symbol gets at least one count, and the margin
    keeps totals strictly below the quarter range so subranges never
    collapse.  Deterministic, so encoder and decoder derive identical
    tables from the same model state.
    """
    probs = [float(p) for p in probs]
    total = sum(probs)
    scale = (1 << _FREQ_BITS) - (len(probs) << 10)
    cum = [0]
    acc = 0
    for p in probs:
        acc += 1 + int(p / total * scale)
        cum.append(acc)
    return cum


class _Encoder:
    def __init__(self):
        self.low = 0
        self.high = _FULL - 1
        self.pending = 0
        self.out = _BitWriter()

    def _emit(self, bit: int) -> None:
        self.out.write(bit)
        other = bit ^ 1
        for _ in range(self.pending):
            self.out.write(other)
        self.pending = 0

    def encode(self, cum: list[int], a: int) -> None:
        total = cum[-1]
        span = self.high - self.low + 1
        self.high = self.low + span * cum[a + 1] // total - 1
        self.low = self.low + span * cum[a] // total
        while True:
            if self.high < _HALF:
                self._emit(0)
            elif self.low >= _HALF:
                self._emit(1)
                self.low -= _HALF
                self.high -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTERS:
                self.pending += 1
                self.low -= _QUARTER
                self.high -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1

    def finish(self) -> tuple[bytes, int]:
        self.pending += 1
        self._emit(0 if self.low < _QUARTER else 1)
        return self.out.getvalue(), self.out.nbits


class _Decoder:
    def __init__(self, data: bytes):
        self.low = 0
        self.high = _FULL - 1
        self.reader = _BitReader(data)
        self.value = 0
        for _ in range(_PRECISION):
            self.value = (self.value << 1) | self.reader.read()

    def decode(self, cum: list[int]) -> int:
        total = cum[-1]
        span = self.high - self.low + 1
        target = ((self.value - self.low + 1) * total - 1) // span
        lo, hi = 0, len(cum) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if cum[mid] <= target:
                lo = mid
            else:
                hi = mid
        a = lo
        self.high = self.low + span * cum[a + 1] // total - 1
        self.low = self.low + span * cum[a] // total
        while True:
            if self.high < _HALF:
                pass
            elif self.low >= _HALF:
                self.low -= _HALF
                self.high -= _HALF
                self.value -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTERS:
                self.low -= _QUARTER
                self.high -= _QUARTER
                self.value -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
            self.value = (self.value << 1) | self.reader.read()
        return a


def arithmetic_encode(x, model) -> tuple[bytes, int]:
    """Encode a sequence (or multi-sample) with a sequential model.

    Returns (payload bytes, payload bit count).  The model is advanced in
    place; pass a fresh instance.  For multi-samples the model's sample
    boundary is reset between samples and the decoder must be driven with
    the same lengths.
    """
    _, samples = as_sample_arrays(x)
    enc = _Encoder()
    for j, arr in enumerate(samples):
        if j:
            model.new_sample()
        for a in arr:
            cum = _cumulative_freqs(model.conditional_probs())
            enc.encode(cum, int(a))
            model.append(int(a))
    return enc.finish()


def arithmetic_decode(payload: bytes, lengths, model, alphabet: Alphabet):
    """Decode `lengths` symbols per sample from an arithmetic payload.

    The model must be a fresh instance of the one used for encoding;
    disagreement produces undetected garbage.
    """
    if isinstance(lengths, int):
        lengths = [lengths]
    dec = _Decoder(payload)
    out = []
    for j, t in enumerate(lengths):
        if j:
            model.new_sample()
        syms = np.empty(int(t), dtype=np.int64)
        for i in range(int(t)):
            cum = _cumulative_freqs(model.conditional_probs())
            a = dec.decode(cum)
            syms[i] = a
            model.append(a)
        out.append(SymbolSeq(alphabet, syms))
    if len(out) == 1:
        return out[0]
    return MultiSample(out)


# ---------------------------------------------------------------------------
# Container format: magic, alphabet size (u16 BE), length (u64 BE),
# model id byte, then the arithmetic payload zero-padded to a byte.

MAGIC = b"UCT1"

MODEL_IDS = {"uniform": 0, "laplace": 1, "kt": 2, "r": 3, "custom": 255}
_ID_MODELS = {v: k for k, v in MODEL_IDS.items()}


class _UniformModel:
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


def uniform_iid_model(alphabet: Alphabet) -> _UniformModel:
    return _UniformModel(alphabet)


def model_for_id(name_or_id, alphabet: Alphabet,
                 max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER,
                 order: int = 0):
    """Fresh sequential model for a container model identifier."""
    name = _ID_MODELS.get(name_or_id, name_or_id)
    if name == "uniform":
        return uniform_iid_model(alphabet)
    if name == "kt":
        return KtState(alphabet, order)
    if name == "r":
        return MixtureEstimator(alphabet, max_explicit_order)
    raise ValueError(f"no built-in coding model named {name!r}")


def container_header(alphabet_size: int, length: int, model_name: str = "r") -> bytes:
    return MAGIC + struct.pack(
        ">HQB", alphabet_size, length, MODEL_IDS.get(model_name, 255)
    )


def compress_container(x: SymbolSeq, model, model_name: str = "r") -> tuple[bytes, int]:
    """Encode a single sequence into the framed container format.

    Returns (container bytes, payload bit count).
    """
    if isinstance(x, MultiSample):
        raise ValueError("the container format holds a single sequence")
    payload, nbits = arithmetic_encode(x, model)
    return container_header(x.alphabet.size, len(x), model_name) + payload, nbits


def decompress_container(data: bytes, model=None, alphabet: Alphabet | None = None,
                         max_explicit_order: int = DEFAULT_MAX_EXPLICIT_ORDER):
    """Decode a container produced by compress_container.

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
    if alphabet is None:
        alphabet = Alphabet.of_size(size)
    elif alphabet.size != size:
        raise ValueError(
            f"container alphabet size {size} differs from supplied {alphabet.size}"
        )
    if model is None:
        model = model_for_id(model_id, alphabet, max_explicit_order)
    seq = arithmetic_decode(data[15:], int(length), model, alphabet)
    header = {
        "alphabet_size": int(size),
        "length": int(length),
        "model": _ID_MODELS.get(model_id, "custom"),
    }
    return seq, header
