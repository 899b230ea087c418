import math
import shutil
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctseries import coding
from uctseries.coding import (
    CodelengthProvider,
    ExternalCompressor,
    arithmetic_decode,
    arithmetic_encode,
    arithmetic_provider,
    compress_container,
    decompress_container,
    measure_provider,
)
from uctseries.estimators import (
    DEFAULT_MAX_EXPLICIT_ORDER,
    MixtureEstimator,
    r_log2prob,
)
from uctseries.seqmodel import Alphabet, AlphabetMismatchError, MultiSample, SymbolSeq

BINARY = Alphabet.of_size(2)


def seq(text, alphabet=BINARY):
    return SymbolSeq.from_labels(alphabet, text)


class _IidModel:
    """Fixed memoryless model for adversarial codec tests."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def conditional_probs(self):
        return self.probs

    def append(self, a):
        pass

    def new_sample(self):
        pass

    def log2prob(self, x):
        with np.errstate(divide="ignore"):
            return float(np.log2(self.probs[x.symbols]).sum())


def _ideal_bits(x, measure_log2prob):
    return measure_provider(measure_log2prob, "measure").codelength(x)


class TestIdealCodelength:
    def test_mixture_codelength_of_00(self):
        bits = _ideal_bits(seq("00"), r_log2prob)
        assert bits == pytest.approx(-math.log2(0.296), abs=3e-3)

    def test_uniform_measure(self):
        model = _IidModel([0.25] * 4)
        x = SymbolSeq(Alphabet.of_size(4), [0, 1, 2, 3, 0])
        assert _ideal_bits(x, model.log2prob) == pytest.approx(10.0, abs=1e-12)

    def test_zero_probability_rejected(self):
        model = _IidModel([1.0, 0.0])
        with pytest.raises(ValueError):
            _ideal_bits(seq("01"), model.log2prob)


def test_frequency_table_sums_left_to_right():
    # ten 0.1s total 0.9999999999999999 left to right (Python 3.10, 3.11)
    # but 1.0 under the compensated built-in sum() of 3.12 on, which gives
    # other steps (115292150460683681, ...), so other payload bytes
    step = 115292150460683697
    assert coding._cumulative_freqs(np.full(10, 0.1)) == [i * step for i in range(11)]


class TestArithmeticCodec:
    def test_empty_sequence(self):
        payload, nbits = arithmetic_encode(seq(""), MixtureEstimator(BINARY))
        out = arithmetic_decode(payload, 0, MixtureEstimator(BINARY), BINARY)
        assert len(out) == 0

    def test_round_trip_with_mixture_model(self):
        rng = np.random.default_rng(3)
        for size in (2, 3, 5):
            alphabet = Alphabet.of_size(size)
            x = SymbolSeq(alphabet, rng.integers(0, size, size=300))
            payload, nbits = arithmetic_encode(x, MixtureEstimator(alphabet))
            out = arithmetic_decode(payload, len(x), MixtureEstimator(alphabet),
                                    alphabet)
            assert (out.symbols == x.symbols).all()
            assert nbits <= math.ceil(-r_log2prob(x)) + 2

    @pytest.mark.parametrize("model_size", [2, 4])
    def test_model_over_another_alphabet_size_is_refused(self, model_size):
        x = SymbolSeq(Alphabet.of_size(3), [2, 2, 0, 2])
        for model in (MixtureEstimator(Alphabet.of_size(model_size)),
                      _IidModel([1 / model_size] * model_size)):
            with pytest.raises(AlphabetMismatchError, match="differs from the model"):
                arithmetic_encode(x, model)

    def test_round_trip_multisample(self):
        ms = MultiSample([seq("0101"), seq("101"), seq("11")])
        payload, _ = arithmetic_encode(ms, MixtureEstimator(BINARY))
        out = arithmetic_decode(payload, [4, 3, 2], MixtureEstimator(BINARY), BINARY)
        assert [s.symbols.tolist() for s in out.samples] == [
            [0, 1, 0, 1], [1, 0, 1], [1, 1]
        ]

    def test_thousand_random_model_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            size = int(rng.integers(2, 9))
            alphabet = Alphabet.of_size(size)
            probs = rng.dirichlet(np.full(size, 0.4))
            t = int(rng.integers(0, 64))
            x = SymbolSeq(alphabet, rng.choice(size, size=t, p=probs))
            model = _IidModel(probs)
            payload, nbits = arithmetic_encode(x, model)
            out = arithmetic_decode(payload, t, model, alphabet)
            assert (out.symbols == x.symbols).all()
            ideal = -model.log2prob(x)
            assert nbits <= math.ceil(ideal) + 2

    def test_skewed_model_length_tracks_ideal(self):
        # 200 zeros under a 0.999-heavy model should cost well under a bit each
        model = _IidModel([0.999, 0.001])
        x = SymbolSeq(BINARY, np.zeros(200, dtype=np.int64))
        _, nbits = arithmetic_encode(x, model)
        ideal = -model.log2prob(x)
        assert nbits <= math.ceil(ideal) + 2
        assert nbits <= 3

    def test_kraft_inequality_by_enumeration(self):
        for t in range(1, 7):
            total = 0.0
            for xs in product(range(2), repeat=t):
                x = SymbolSeq(BINARY, list(xs))
                _, nbits = arithmetic_encode(x, MixtureEstimator(BINARY))
                total += 2.0 ** -nbits
            assert total <= 1.0 + 1e-12

    def test_kraft_inequality_skewed_iid_model(self):
        for t in (3, 6):
            total = 0.0
            for xs in product(range(2), repeat=t):
                x = SymbolSeq(BINARY, list(xs))
                _, nbits = arithmetic_encode(x, _IidModel([0.9, 0.1]))
                total += 2.0 ** -nbits
            assert total <= 1.0 + 1e-12

    def test_measure_codelength_lower_bounds_coder(self):
        # ideal codelength of the coding model never exceeds the emitted bits
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = int(rng.integers(1, 40))
            x = SymbolSeq(BINARY, rng.integers(0, 2, size=t))
            _, nbits = arithmetic_encode(x, MixtureEstimator(BINARY))
            assert _ideal_bits(x, r_log2prob) <= nbits

    def test_arithmetic_provider_kind(self):
        p = arithmetic_provider()
        assert p.name == "arithmetic"
        bits = p.codelength(seq("0101010101"))
        assert bits == float(int(bits))
        assert bits <= math.ceil(-r_log2prob(seq("0101010101"))) + 2

    def test_floor_guarantees_progress_on_surprising_symbols(self):
        # a symbol the model deems (nearly) impossible still encodes and
        # decodes thanks to the frequency floor
        model_probs = [1.0 - 1e-15, 1e-15]
        x = SymbolSeq(BINARY, [0, 1, 0, 1, 1, 0])
        payload, nbits = arithmetic_encode(x, _IidModel(model_probs))
        out = arithmetic_decode(payload, len(x), _IidModel(model_probs), BINARY)
        assert (out.symbols == x.symbols).all()
        assert nbits <= 3 * 62  # surprising symbols cost at most ~60 bits each

    def test_pending_bit_stress(self):
        # near-half probabilities keep the range straddling the midpoint,
        # exercising the carry/underflow path
        rng = np.random.default_rng(29)
        model = _IidModel([0.5 + 1e-12, 0.5 - 1e-12])
        x = SymbolSeq(BINARY, rng.integers(0, 2, size=5000))
        payload, nbits = arithmetic_encode(x, _IidModel(model.probs))
        out = arithmetic_decode(payload, len(x), _IidModel(model.probs), BINARY)
        assert (out.symbols == x.symbols).all()
        assert nbits <= 5000 + 2

    def test_single_letter_alphabet(self):
        one = Alphabet.of_size(1)
        x = SymbolSeq(one, [0] * 50)
        payload, nbits = arithmetic_encode(x, _IidModel([1.0]))
        out = arithmetic_decode(payload, 50, _IidModel([1.0]), one)
        assert (out.symbols == x.symbols).all()
        assert nbits <= 2

    def test_universality_on_markov_chain(self):
        # per-letter emitted bits approach the chain's entropy rate
        from uctseries.estimators import MarkovSource

        src = MarkovSource(BINARY, 1, [[0.8, 0.2], [0.2, 0.8]])
        x = src.sample(100_000, np.random.default_rng(4))
        _, nbits = arithmetic_encode(x, MixtureEstimator(BINARY))
        h = src.entropy_rate()
        assert nbits / len(x) == pytest.approx(h, abs=0.05)


@st.composite
def _coding_cases(draw):
    """(alphabet, samples, fresh-model factory) for the coding property test."""
    size = draw(st.integers(1, 8))
    alphabet = Alphabet.of_size(size)
    lengths = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    samples = [draw(st.lists(st.integers(0, size - 1), min_size=t, max_size=t))
               for t in lengths]
    if draw(st.booleans()):
        probs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(
            np.full(size, 0.4))
        return alphabet, samples, lambda: _IidModel(probs)
    order = draw(st.sampled_from([0, 1, 3, DEFAULT_MAX_EXPLICIT_ORDER]))
    return alphabet, samples, lambda: MixtureEstimator(alphabet, order)


class TestCodingLoopProperty:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_coding_cases())
    def test_round_trip_and_length_bound(self, case):
        alphabet, samples, fresh = case
        seqs = [SymbolSeq(alphabet, s) for s in samples]
        x = seqs[0] if len(seqs) == 1 else MultiSample(seqs)
        before = [s.symbols.copy() for s in seqs]
        model = fresh()
        payload, nbits = arithmetic_encode(x, model)
        assert all((s.symbols == b).all() for s, b in zip(seqs, before))
        out = arithmetic_decode(payload, [len(s) for s in samples], fresh(), alphabet)
        outs = out.samples if isinstance(out, MultiSample) else [out]
        assert [o.symbols.tolist() for o in outs] == samples
        if isinstance(model, _IidModel):
            ideal = -sum(model.log2prob(s) for s in seqs)
        else:
            ideal = -model.log2prob
        assert nbits <= math.ceil(ideal) + 2


class TestContainer:
    def test_round_trip(self):
        x = seq("0100100101101")
        blob, _ = compress_container(x)
        out, header = decompress_container(blob)
        assert (out.symbols == x.symbols).all()
        assert header == {"alphabet_size": 2, "length": 13, "model": "r"}

    def test_max_order_is_the_second_argument(self):
        x = SymbolSeq(Alphabet.of_size(3), [int(c) for c in "0011220110220011"])
        blob, nbits = compress_container(x, 2)
        assert blob[14] == 3  # the mixture's id
        assert nbits == arithmetic_encode(x, MixtureEstimator(x.alphabet, 2))[1]
        out, header = decompress_container(blob, max_explicit_order=2)
        assert (out.symbols == x.symbols).all()
        assert header == {"alphabet_size": 3, "length": 16, "model": "r"}

    # 0 and 2 once named a uniform and an order-0 add-half model
    @pytest.mark.parametrize("model_id", [0, 1, 2, 255])
    def test_unknown_model_id(self, model_id):
        blob = bytearray(compress_container(seq("0110"))[0])
        blob[14] = model_id
        with pytest.raises(ValueError, match=f"unknown model id {model_id} at byte 14"):
            decompress_container(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="byte 0"):
            decompress_container(b"XXXX" + bytes(11))

    def test_truncated_header(self):
        blob, _ = compress_container(seq("01"))
        with pytest.raises(ValueError, match="truncated"):
            decompress_container(blob[:9])

    def test_alphabet_size_mismatch(self):
        blob, _ = compress_container(seq("01"))
        with pytest.raises(ValueError, match="differs"):
            decompress_container(blob, alphabet=Alphabet.of_size(3))

    def test_alphabet_beyond_u16_rejected_before_encoding(self, monkeypatch):
        def no_encoding(*args):
            raise AssertionError("encoded before the size check")

        monkeypatch.setattr(coding, "arithmetic_encode", no_encoding)
        x = SymbolSeq(Alphabet.of_size(70_000), [69_999, 0])
        with pytest.raises(ValueError, match="at most 65535 symbols"):
            compress_container(x)

    def test_uniform_model_round_trip(self):
        alphabet = Alphabet.of_size(4)
        x = SymbolSeq(alphabet, np.arange(100) % 4)
        payload, nbits = arithmetic_encode(x, _IidModel([0.25] * 4))
        out = arithmetic_decode(payload, len(x), _IidModel([0.25] * 4), alphabet)
        assert (out.symbols == x.symbols).all()
        assert nbits <= 2 * 100 + 2


ZLIB_CMD = (
    f'{sys.executable} -c "import sys,zlib;'
    'sys.stdout.buffer.write(zlib.compress(sys.stdin.buffer.read()))"'
)


def _compressor_cmd():
    return "gzip -c" if shutil.which("gzip") else ZLIB_CMD


class TestExternalCompressor:
    def test_constant_sequence_is_compressible(self):
        x = SymbolSeq(BINARY, np.zeros(10_000, dtype=np.int64))
        bits = ExternalCompressor(_compressor_cmd()).codelength(x)
        assert 0 < bits < 0.1 * 10_000 * math.log2(2) + 2000

    def test_uniform_bytes_incompressible(self):
        rng = np.random.default_rng(9)
        alphabet = Alphabet.of_size(256)
        x = SymbolSeq(alphabet, rng.integers(0, 256, size=10_000))
        bits = ExternalCompressor(_compressor_cmd()).codelength(x)
        assert bits >= 8 * 10_000 - 512

    def test_empty_sequence_has_container_overhead(self):
        bits = ExternalCompressor(_compressor_cmd()).codelength(seq(""))
        assert bits > 0

    def test_deterministic(self):
        x = SymbolSeq(BINARY, np.tile([0, 1, 1], 500))
        compressor = ExternalCompressor(_compressor_cmd())
        assert compressor.codelength(x) == compressor.codelength(x)

    def test_missing_command(self):
        with pytest.raises(OSError):
            ExternalCompressor("definitely-not-a-real-binary-xyz").codelength(seq("01"))

    def test_large_alphabet_rejected(self):
        big = Alphabet.of_size(300)
        with pytest.raises(ValueError):
            ExternalCompressor("cat").codelength(SymbolSeq(big, [299]))

    def test_multisample_rejected(self):
        ms = MultiSample([seq("01"), seq("10")])
        with pytest.raises(ValueError):
            ExternalCompressor("cat").codelength(ms)

    def test_cat_codelength_is_raw_size(self):
        if not shutil.which("cat"):
            pytest.skip("no cat binary")
        x = seq("01011")
        assert ExternalCompressor("cat").codelength(x) == 40.0
