import json
import math
import sys
import threading
from bisect import bisect_right
from itertools import product
from math import lgamma, log2
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctseries import cli, estimators, seqmodel
from uctseries.coding import arithmetic_encode
from uctseries.estimators import (
    KtState,
    MarkovSource,
    MixtureEstimator,
    PairAlphabet,
    avg_kl_error,
    final_conditional,
    kt_log2prob,
    laplace_cond_log2prob,
    laplace_log2prob,
    log2_sum,
    order_weight,
    order_weight_tail,
    r_cond_log2prob,
    r_log2prob,
    side_info_cond_log2probs,
)
from uctseries.realvalued import Partition, density_log2, sign_process_generate
from uctseries.seqmodel import (
    Alphabet,
    AlphabetMismatchError,
    MultiSample,
    SymbolSeq,
    window_counts,
)

BINARY = Alphabet.of_size(2)


def seq(text, alphabet=BINARY):
    return SymbolSeq.from_labels(alphabet, text)


def multi(*texts, alphabet=BINARY):
    return MultiSample([seq(t, alphabet) for t in texts])


def brute_kt(samples, m, size):
    """Independent oracle: direct gamma-ratio evaluation of the order-m
    add-half probability from a plain window scan."""
    logp = -sum(min(m, len(s)) for s in samples) * log2(size)
    pair, ctx = {}, {}
    for s in samples:
        for i in range(m, len(s)):
            v = tuple(s[i - m:i])
            pair[(v, s[i])] = pair.get((v, s[i]), 0) + 1
            ctx[v] = ctx.get(v, 0) + 1
    num = sum(lgamma(n + 0.5) - lgamma(0.5) for n in pair.values())
    den = sum(lgamma(n + size / 2) - lgamma(size / 2) for n in ctx.values())
    return logp + (num - den) / math.log(2)


def brute_r(samples, size, big=64):
    """Independent oracle for the mixture: explicit orders up to the
    longest sample, closed-form uniform tail beyond."""
    t = sum(len(s) for s in samples)
    longest = max(len(s) for s in samples)
    terms = [
        log2(order_weight(i + 1)) + brute_kt(samples, i, size)
        for i in range(min(big, longest))
    ]
    terms.append(log2(order_weight_tail(min(big, longest) + 1)) - t * log2(size))
    m = max(terms)
    return m + log2(sum(2 ** (x - m) for x in terms))


class TestWeights:
    def test_first_weight(self):
        assert order_weight(1) == pytest.approx(0.369, abs=5e-4)

    def test_weights_sum_to_one(self):
        total = sum(order_weight(i) for i in range(1, 4000))
        assert total + order_weight_tail(4000) == pytest.approx(1.0, abs=1e-12)

    def test_tail_closed_form(self):
        # partial sums telescope: sum_{i=k}^{N-1} w_i = tail(k) - tail(N)
        for k in (2, 3, 10):
            n = 50_000
            s = sum(order_weight(i) for i in range(k, n))
            assert s == pytest.approx(
                order_weight_tail(k) - order_weight_tail(n), abs=1e-12
            )


class TestLaplace:
    def test_conditionals_after_01010(self):
        x = seq("01010")
        assert 2 ** laplace_cond_log2prob(0, x) == pytest.approx(4 / 7, abs=1e-15)
        assert 2 ** laplace_cond_log2prob(1, x) == pytest.approx(3 / 7, abs=1e-15)

    def test_chain_probabilities(self):
        assert laplace_log2prob(seq("01010")) == pytest.approx(log2(1 / 60), abs=1e-12)
        assert laplace_log2prob(seq("010101")) == pytest.approx(log2(1 / 140), abs=1e-12)

    def test_empty_sequence_uniform(self):
        x = seq("")
        for a in range(2):
            assert laplace_cond_log2prob(a, x) == pytest.approx(-1.0, abs=1e-15)

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 3, size=30)
        alphabet = Alphabet.of_size(3)
        total = 0.0
        for i in range(arr.size):
            total += laplace_cond_log2prob(arr[i], SymbolSeq(alphabet, arr[:i]))
        assert total == pytest.approx(
            laplace_log2prob(SymbolSeq(alphabet, arr)), abs=1e-10
        )

    def test_normalization_by_enumeration(self):
        for t in range(7):
            total = sum(
                2 ** laplace_log2prob(SymbolSeq(BINARY, list(xs)))
                for xs in product(range(2), repeat=t)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestKt:
    def test_k0_01010(self):
        assert kt_log2prob(seq("01010"), 0) == pytest.approx(log2(3 / 256), abs=1e-12)

    def test_k2_fourteen_letter_example(self):
        x = seq("00101100111010")  # O -> 0, I -> 1
        expected = (2 ** -2) * (1/2 * 3/4) * (1/2 * 1/4 * 1/2 * 3/8) \
            * (1/2 * 1/4 * 1/2) * (1/2 * 1/4 * 1/2)
        assert 2 ** kt_log2prob(x, 2) == pytest.approx(expected, rel=1e-12)

    def test_multisample_values(self):
        ms = multi("0101", "101")
        assert 2 ** kt_log2prob(ms, 0) == pytest.approx(0.00244, abs=5e-4)
        assert 2 ** kt_log2prob(ms, 1) == pytest.approx(15 / 512, rel=1e-12)
        assert 2 ** kt_log2prob(ms, 2) == pytest.approx(0.01172, abs=5e-4)
        for i in (3, 4, 7):
            assert kt_log2prob(ms, i) == pytest.approx(-7.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for size in (2, 3):
            alphabet = Alphabet.of_size(size)
            for _ in range(10):
                arrs = [
                    rng.integers(0, size, size=rng.integers(1, 25)).tolist()
                    for _ in range(rng.integers(1, 4))
                ]
                ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
                for m in range(4):
                    assert kt_log2prob(ms, m) == pytest.approx(
                        brute_kt(arrs, m, size), abs=1e-9
                    )

    def test_normalization_by_enumeration(self):
        for m in range(3):
            for t in (1, 4, 6):
                total = sum(
                    2 ** kt_log2prob(SymbolSeq(BINARY, list(xs)), m)
                    for xs in product(range(2), repeat=t)
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_alphabet_fallback_counting(self):
        # 256 symbols at order 7 exceed the integer window-code range, so
        # the codes are renamed to ranks; check it against the oracle
        rng = np.random.default_rng(71)
        alphabet = Alphabet.of_size(256)
        arr = rng.integers(0, 256, size=400).tolist()
        x = SymbolSeq(alphabet, arr)
        assert kt_log2prob(x, 7) == pytest.approx(
            brute_kt([arr], 7, 256), abs=1e-8
        )

    def test_kolmogorov_consistency(self):
        for m in (0, 2):
            for t in range(5):
                for xs in product(range(2), repeat=t):
                    joint = log2_sum(
                        [
                            kt_log2prob(SymbolSeq(BINARY, list(xs) + [a]), m)
                            for a in range(2)
                        ]
                    )
                    assert joint == pytest.approx(
                        kt_log2prob(SymbolSeq(BINARY, list(xs)), m), abs=1e-10
                    )

    def test_context_counts_above_table_cap(self):
        # 80000 symbols, 95% zeros: the order-0 and order-1 counts of "0"
        # pass the log-gamma table cap and take the one-at-a-time path
        rng = np.random.default_rng(37)
        arr = (rng.random(80_000) < 0.05).astype(int).tolist()
        x = SymbolSeq(BINARY, arr)
        assert max(arr.count(0), arr.count(1)) > estimators._LGAMMA_TABLE_CAP
        for m in (0, 1, 3):
            assert kt_log2prob(x, m) == pytest.approx(brute_kt([arr], m, 2), abs=1e-9)

    def test_counts_past_table_cap_pinned(self, monkeypatch):
        # exact values from cold tables, where the order-0 counts and the
        # depth-s context counts pass the log-gamma table cap
        monkeypatch.setattr(estimators, "_lgamma_tables", {})
        rng = np.random.default_rng(37)
        x = SymbolSeq(BINARY, (rng.random(80_000) < 0.05).astype(np.int64))
        assert r_log2prob(x) == float.fromhex("-0x1.68bc2a698dd2bp+14")
        values = sign_process_generate(0.4, 70_000, seed=11)
        levels = Partition(-1.0, 1.0, 20).levels(values)
        assert r_log2prob(levels[8], 2) == float.fromhex("-0x1.0f821205656ffp+19")
        assert r_log2prob(levels[20], 2) == float.fromhex("-0x1.55cc0aa6d4cb4p+20")


class TestLgammaCounts:
    OFFSETS = [0.5, 1.0] + [size / 2.0 for size in (1, 2, 3, 256, 65535)]

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_equals_math_lgamma(self, offset):
        cap = estimators._LGAMMA_TABLE_CAP
        counts = np.concatenate([np.arange(cap + 2), [10**6]])
        got = estimators._lgamma_counts(counts, offset)
        assert got.tolist() == [lgamma(c + offset) for c in counts.tolist()]
        empty = estimators._lgamma_counts(np.array([], dtype=np.int64), offset)
        assert empty.shape == (0,)

    def test_tables_stay_within_cap(self):
        for offset in self.OFFSETS:
            estimators._lgamma_counts(np.array([3, 10**6, 7]), offset)
        tables = estimators._lgamma_tables
        assert 0 < len(tables) <= estimators._LGAMMA_MAX_TABLES
        assert max(t.size for t in tables.values()) <= estimators._LGAMMA_TABLE_CAP

    @staticmethod
    def check(counts, offset):
        counts = np.asarray(counts)
        got = estimators._lgamma_counts(counts, offset)
        assert got.tolist() == [lgamma(c + offset) for c in counts.tolist()]

    def sizes(self):
        return {k: t.size for k, t in estimators._lgamma_tables.items()}

    def test_tables_evicted_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(estimators, "_lgamma_tables", {})
        limit = estimators._LGAMMA_MAX_TABLES
        for k in range(limit + 1):  # 65 distinct offsets
            self.check([0, 7, 300, 2], 0.5 + k)
            assert 0 < len(estimators._lgamma_tables) <= limit
        assert 0.5 + limit in estimators._lgamma_tables

    def test_all_counts_past_cap_on_an_empty_table(self, monkeypatch):
        monkeypatch.setattr(estimators, "_lgamma_tables", {})
        cap = estimators._LGAMMA_TABLE_CAP
        self.check([cap, 10**6, cap + 1], 0.5)
        assert self.sizes() == {}

    def test_counts_straddling_the_cap(self, monkeypatch):
        monkeypatch.setattr(estimators, "_lgamma_tables", {})
        cap = estimators._LGAMMA_TABLE_CAP
        self.check([5, 10**6, 1000, cap, 0], 1.5)
        assert self.sizes() == {1.5: 1001}  # the largest count below the cap
        self.check([1500, 10**7], 1.5)
        assert self.sizes() == {1.5: 2002}  # growth still doubles
        self.check([40_000, cap, 17], 1.5)
        assert self.sizes() == {1.5: 40_001}
        self.check([cap - 1, 3 * cap], 1.5)
        assert self.sizes() == {1.5: cap}

    def test_a_count_past_cap_never_grows_a_table(self, monkeypatch):
        monkeypatch.setattr(estimators, "_lgamma_tables", {})
        cap = estimators._LGAMMA_TABLE_CAP
        self.check([10, 3], 0.5)
        for counts in ([cap], [10**6, 3], [cap + 7, 10, 0]):
            self.check(counts, 0.5)
            assert self.sizes() == {0.5: 11}
        for counts in ([cap], [10**6, 2 * cap]):
            self.check(counts, 1.0)
            assert self.sizes() == {0.5: 11}

    def test_cold_density_fills_small_tables(self, monkeypatch):
        # order-0 and order-1 context counts at depth 8 pass the cap; before
        # they stopped growing tables, this call filled 574k entries
        monkeypatch.setattr(estimators, "_lgamma_tables", {})
        xs = sign_process_generate(0.4, 100_000, seed=0)
        density_log2(xs, -1.0, 1.0, 8)
        assert sum(self.sizes().values()) <= 160_000


class TestKtState:
    def test_fresh_state_uniform(self):
        st = KtState(BINARY, 0)
        assert st.conditional_probs().tolist() == [0.5, 0.5]

    def test_k0_conditional_after_01010(self):
        st = KtState(BINARY, 0).consume(seq("01010"))
        assert 2 ** st.conditional_log2prob(0) == pytest.approx(7 / 12, abs=1e-12)

    def test_conditionals_sum_to_one(self):
        rng = np.random.default_rng(13)
        st = KtState(Alphabet.of_size(3), 2)
        for a in rng.integers(0, 3, size=50):
            assert sum(st.conditional_probs()) == pytest.approx(1.0, abs=1e-12)
            st.append(int(a))

    def test_sequential_product_equals_batch(self):
        rng = np.random.default_rng(37)
        for size, m in product((2, 3), range(6)):
            alphabet = Alphabet.of_size(size)
            arrs = [rng.integers(0, size, size=n).tolist() for n in (9, 0, 4, 1, 13)]
            ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
            st = KtState(alphabet, m).consume(ms)
            assert st.log2prob == pytest.approx(kt_log2prob(ms, m), abs=1e-10)


class TestMixture:
    def test_single_letter_pairs(self):
        assert 2 ** r_log2prob(seq("00")) == pytest.approx(0.296, abs=5e-4)
        assert 2 ** r_log2prob(seq("01")) == pytest.approx(0.204, abs=5e-4)
        assert 2 ** r_log2prob(seq("10")) == pytest.approx(0.204, abs=5e-4)
        assert 2 ** r_log2prob(seq("11")) == pytest.approx(0.296, abs=5e-4)

    def test_multisample_value(self):
        assert 2 ** r_log2prob(multi("0101", "101")) == pytest.approx(0.0089, abs=5e-4)

    def test_conditional_word(self):
        ms = multi("0101", "101")
        assert 2 ** r_cond_log2prob([0, 1], ms) == pytest.approx(0.32812, abs=1e-3)

    def test_fresh_conditional_uniform(self):
        ms = MixtureEstimator(Alphabet.of_size(4))
        assert ms.conditional_probs() == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_normalization_by_enumeration(self):
        for t in range(1, 7):
            total = sum(
                2 ** r_log2prob(SymbolSeq(BINARY, list(xs)))
                for xs in product(range(2), repeat=t)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_extension(self):
        rng = np.random.default_rng(41)
        arr = rng.integers(0, 2, size=30)
        for i in range(1, 30):
            a = r_log2prob(SymbolSeq(BINARY, arr[:i]))
            b = r_log2prob(SymbolSeq(BINARY, arr[:i + 1]))
            assert b <= a + 1e-12

    def test_matches_brute_force_mixture(self):
        rng = np.random.default_rng(43)
        for size in (2, 3):
            alphabet = Alphabet.of_size(size)
            for _ in range(8):
                arrs = [
                    rng.integers(0, size, size=rng.integers(1, 12)).tolist()
                    for _ in range(rng.integers(1, 3))
                ]
                ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
                assert r_log2prob(ms) == pytest.approx(
                    brute_r(arrs, size), abs=1e-9
                )

    @pytest.mark.parametrize("size", [256, 70000])
    def test_large_alphabet_matches_brute_force_mixture(self, size):
        # orders past the rank renaming of the window codes
        rng = np.random.default_rng(size)
        alphabet = Alphabet.of_size(size)
        letters = [0, 1, size - 1]
        for _ in range(4):
            arrs = [rng.choice(letters, size=n).tolist() for n in (17, 9)]
            ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
            assert r_log2prob(ms) == pytest.approx(brute_r(arrs, size), abs=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            r_log2prob(seq("0110"), -1)

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(47)
        arrs = [rng.integers(0, 2, size=n).tolist() for n in (60, 25)]
        ms = MultiSample([SymbolSeq(BINARY, a) for a in arrs])
        est = MixtureEstimator(BINARY).consume(ms)
        assert est.log2prob == pytest.approx(r_log2prob(ms), abs=1e-9)

    @pytest.mark.parametrize("size", [1, 2, 3, 256])
    @pytest.mark.parametrize("max_order", [0, 1, 3, 16])
    def test_sequential_conditionals_equal_batch_ratios(self, size, max_order):
        # every step against the batch measure: R(x a) / R(x), across
        # empty and one-symbol samples; truncated below max order 16
        rng = np.random.default_rng(size + max_order)
        alphabet = Alphabet.of_size(size)
        letters = [0, 1, size - 1][:size]
        arrs = [rng.choice(letters, size=n).tolist() for n in (14, 0, 1, 19)]
        est = MixtureEstimator(alphabet, max_order)
        done = []
        for j, arr in enumerate(arrs):
            if j:
                est.new_sample()
            for i in range(len(arr) + 1):
                prefix = MultiSample(done + [SymbolSeq(alphabet, arr[:i])])
                base = r_log2prob(prefix, max_order)
                cond = est.conditional_probs()
                for a in sorted(set(letters)):
                    ratio = 2 ** (r_log2prob(
                        MultiSample(done + [SymbolSeq(alphabet, arr[:i] + [a])]),
                        max_order) - base)
                    assert cond[a] == pytest.approx(ratio, abs=1e-9)
                if i < len(arr):
                    est.append(arr[i])
            done.append(SymbolSeq(alphabet, arr))
        assert est.truncated == (max_order < 18)
        assert est.log2prob == pytest.approx(
            r_log2prob(MultiSample(done), max_order), abs=1e-9)

    def test_sequential_equals_batch_when_truncated(self):
        rng = np.random.default_rng(53)
        arr = rng.integers(0, 2, size=200).tolist()
        x = SymbolSeq(BINARY, arr)
        est = MixtureEstimator(BINARY, max_explicit_order=6).consume(x)
        assert est.truncated
        assert est.log2prob == pytest.approx(
            r_log2prob(x, max_explicit_order=6), abs=1e-9
        )

    def test_conditionals_sum_to_one_even_truncated(self):
        rng = np.random.default_rng(59)
        est = MixtureEstimator(BINARY, max_explicit_order=4)
        for a in rng.integers(0, 2, size=120):
            assert est.conditional_probs().sum() == pytest.approx(1.0, abs=1e-12)
            est.append(int(a))

    def test_consume_refuses_another_alphabet_size_before_any_step(self):
        est = MixtureEstimator(BINARY).consume(seq("01"))
        before = (est.log2prob, est.conditional_probs().tolist())
        with pytest.raises(AlphabetMismatchError, match="alphabet size"):
            est.consume(SymbolSeq(Alphabet.of_size(3), [2, 2, 0, 2]))
        assert (est.log2prob, est.conditional_probs().tolist()) == before

    @pytest.mark.parametrize("a", [7, 2, -1])
    @pytest.mark.parametrize("model", ["mixture", "kt"])
    def test_append_refuses_a_symbol_outside_the_alphabet(self, model, a):
        est = MixtureEstimator(BINARY) if model == "mixture" else KtState(BINARY, 1)
        est.append(1)
        before = (est.log2prob, est.conditional_probs().tolist())
        with pytest.raises(AlphabetMismatchError, match=f"symbol {a} outside"):
            est.append(a)
        assert (est.log2prob, est.conditional_probs().tolist()) == before

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(61)
        arr = rng.integers(0, 2, size=25)
        total = 0.0
        for i in range(arr.size):
            total += r_cond_log2prob([arr[i]], SymbolSeq(BINARY, arr[:i]))
        assert total == pytest.approx(r_log2prob(SymbolSeq(BINARY, arr)), abs=1e-10)


class DenseMixture:
    """Oracle: the dense numpy step of the sequential mixture.

    Every context (a tuple of recent symbols, the latest first) owns a
    row of |A| float counts; one array holds every order's weighted
    conditional, row 0 the uniform tail's, and np.add.accumulate sums it
    along the orders.  `weights` are the prior weights in that order.
    """

    def __init__(self, size, max_order, weights):
        self.size, self.max_order = size, max_order
        self.w = np.array(weights, dtype=float)
        self.counts = {(): np.zeros(size)}
        self.hist = []
        self.log2prob = 0.0

    def _path(self):
        path = [()]
        for k in range(1, len(self.hist) + 1):
            ctx = tuple(reversed(self.hist[len(self.hist) - k:]))
            if ctx not in self.counts:
                break
            path.append(ctx)
        return path

    def _terms(self, path, cols):
        counts = np.array([self.counts[ctx] for ctx in path])
        totals = counts.sum(axis=1, keepdims=True)
        cond = (counts[:, cols] + 0.5) / (totals + self.size / 2.0)
        n = len(path) + 1
        terms = np.empty((self.w.size, cond.shape[1]))
        terms[0] = self.w[0] / self.size
        terms[1:n] = self.w[1:n, None] * cond
        terms[n:] = self.w[n:, None] * (1.0 / self.size)
        return terms

    def conditional_probs(self):
        return np.add.accumulate(self._terms(self._path(), slice(None)), axis=0)[-1]

    def append(self, a):
        joint = self._terms(self._path(), slice(a, a + 1))[:, 0]
        step = np.add.accumulate(joint)[-1]
        self.log2prob += math.log2(step)
        self.w = joint / step
        for k in range(len(self.hist) + 1):
            ctx = tuple(reversed(self.hist[len(self.hist) - k:]))
            self.counts.setdefault(ctx, np.zeros(self.size))[a] += 1.0
        self.hist.append(a)
        if len(self.hist) > self.max_order:
            del self.hist[0]

    def new_sample(self):
        self.hist = []


def _model_pair(alphabet, kind, order):
    """A fresh sequential model and a fresh dense oracle with its weights."""
    if kind == "kt":
        return KtState(alphabet, order), DenseMixture(
            alphabet.size, order, [0.0] * (order + 1) + [1.0])
    weights = [order_weight_tail(order + 2)] + [order_weight(i + 1) for i in range(order + 1)]
    return MixtureEstimator(alphabet, order), DenseMixture(alphabet.size, order, weights)


def _assert_same_bits(alphabet, samples, kind, order):
    """== on the conditionals before every step, log2prob after every
    step, and the arithmetic payload; `truncated` after every step says
    whether some sample so far is longer than order + 1."""
    model, oracle = _model_pair(alphabet, kind, order)
    longest = 0
    for j, sample in enumerate(samples):
        if j:
            model.new_sample()
            oracle.new_sample()
        for t, a in enumerate(sample, start=1):
            assert model.conditional_probs().tolist() == oracle.conditional_probs().tolist()
            model.append(a)
            oracle.append(a)
            assert model.log2prob == oracle.log2prob
            longest = max(longest, t)
            assert model.truncated == (longest > order + 1)
    assert model.conditional_probs().tolist() == oracle.conditional_probs().tolist()
    seqs = [SymbolSeq(alphabet, s) for s in samples]
    x = seqs[0] if len(seqs) == 1 else MultiSample(seqs)
    model, oracle = _model_pair(alphabet, kind, order)
    assert arithmetic_encode(x, model) == arithmetic_encode(x, oracle)


@st.composite
def _mixture_cases(draw):
    """(alphabet, samples, model kind, order); the samples use a few
    letters of the alphabet, so contexts recur even at |A| = 256."""
    size = draw(st.sampled_from([1, 2, 3, 256]))
    letters = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4, unique=True))
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 7, 30, 80]), min_size=1, max_size=4))
    samples = [draw(st.lists(st.sampled_from(letters), min_size=t, max_size=t))
               for t in lengths]
    if draw(st.booleans()):
        return Alphabet.of_size(size), samples, "kt", draw(st.integers(0, 3))
    return Alphabet.of_size(size), samples, "r", draw(st.sampled_from([0, 2, 16]))


class TestSparseStepMatchesDenseOracle:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_mixture_cases())
    def test_bit_identical_at_every_step(self, case):
        _assert_same_bits(*case)

    @pytest.mark.parametrize("size", [2, 3, 256])
    @pytest.mark.parametrize("kind,order", [("r", 16), ("r", 2), ("kt", 3)])
    def test_bit_identical_on_long_skewed_samples(self, size, kind, order):
        # long enough for posterior weights to fall below an ulp of the
        # conditionals and to underflow, with empty and one-symbol samples
        rng = np.random.default_rng(size + order)
        probs = rng.dirichlet(np.full(size, 0.3))
        samples = [rng.choice(size, size=n, p=probs).tolist() for n in (700, 0, 1, 300)]
        _assert_same_bits(Alphabet.of_size(size), samples, kind, order)


def _as_x(alphabet, samples):
    seqs = [SymbolSeq(alphabet, s) for s in samples]
    return seqs[0] if len(seqs) == 1 else MultiSample(seqs)


@st.composite
def _final_cases(draw):
    """(x, max_explicit_order): multi-samples whose last sample may be
    empty or hold one symbol, and orders of 0, below the longest sample
    and above it."""
    size = draw(st.sampled_from([1, 2, 3, 256]))
    letters = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4, unique=True))
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 7, 30, 80]), min_size=1, max_size=3))
    if draw(st.booleans()):
        lengths.append(draw(st.sampled_from([0, 1])))
    samples = [draw(st.lists(st.sampled_from(letters), min_size=t, max_size=t))
               for t in lengths]
    longest = max(lengths)
    order = draw(st.sampled_from([0, max(longest // 2, 1), longest + 2]))
    return _as_x(Alphabet.of_size(size), samples), order


@pytest.fixture
def counted(monkeypatch):
    """The arguments of every window count, through either module's binding."""
    calls = []
    count = seqmodel._count

    def counting(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(estimators, "_count", counting)
    monkeypatch.setattr(seqmodel, "_count", counting)
    return calls


class TestFinalConditional:
    """The batch conditional against the sequential mixture and an exact oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_final_cases())
    def test_matches_sequential_mixture(self, case):
        x, order = case
        probs, log2prob = final_conditional(x, order)
        sequential = MixtureEstimator(x.alphabet, order).consume(x).conditional_probs()
        np.testing.assert_allclose(probs, sequential, rtol=1e-9, atol=0)
        assert log2prob == r_log2prob(x, order)

    @pytest.mark.parametrize("size", [2, 3, 256])
    def test_matches_sequential_on_long_input(self, size):
        rng = np.random.default_rng(size)
        probs = rng.dirichlet(np.full(size, 0.3))
        x = _as_x(Alphabet.of_size(size),
                  [rng.choice(size, size=n, p=probs) for n in (3000, 0, 500)])
        batch, log2prob = final_conditional(x)
        sequential = MixtureEstimator(x.alphabet).consume(x).conditional_probs()
        np.testing.assert_allclose(batch, sequential, rtol=1e-9, atol=0)
        assert log2prob == r_log2prob(x)

    def test_empty_input_is_uniform(self):
        probs, log2prob = final_conditional(MultiSample([seq(""), seq("")]))
        assert probs.tolist() == [0.5, 0.5] and log2prob == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            final_conditional(seq("01"), -1)

    @pytest.mark.parametrize("argv,orders", [
        (["mixed.txt"], 17),
        (["two_samples.txt", "--max-order", "1"], 2),
    ])
    def test_predict_counts_one_extension_once_per_order(self, counted, capsys, argv,
                                                         orders):
        data = Path(__file__).parent / "data" / argv[0]
        assert cli.main(["predict", "--in", str(data), *argv[1:]]) == 0
        assert "conditionals" in json.loads(capsys.readouterr().out)
        assert [args[3] for args in counted] == list(range(orders))
        flat, lengths = counted[0][:2]  # the same arrays at every order, no per-order probe
        for args in counted:
            assert args[0] is flat and args[1] is lengths


def _exact_log_r(x, max_explicit_order):
    """Natural log of R(x) at the working mpmath precision, from the
    integer window counts: each order's add-half product through
    loggamma, the orders above min(max_explicit_order, longest - 1)
    lumped into the uniform tail."""
    alphabet, samples = x.alphabet, [x] if isinstance(x, SymbolSeq) else x.samples
    size = alphabet.size
    lengths = [len(s) for s in samples]
    explicit = min(max_explicit_order, max(lengths) - 1)
    half, base = mpmath.mpf(1) / 2, mpmath.mpf(size) / 2

    def log_gamma_ratios(counts, offset):
        values, mult = np.unique(counts, return_counts=True)
        return mpmath.fsum(int(k) * (mpmath.loggamma(int(c) + offset) - mpmath.loggamma(offset))
                           for c, k in zip(values, mult))

    terms = []
    for i in range(explicit + 1):
        counts = window_counts(x, i)
        weight = 1 - 1 / mpmath.log(3, 2) if i == 0 else (
            1 / mpmath.log(i + 2, 2) - 1 / mpmath.log(i + 3, 2))
        terms.append(mpmath.log(weight)
                     - sum(min(t, i) for t in lengths) * mpmath.log(size)
                     + log_gamma_ratios(counts.pair, half)
                     - log_gamma_ratios(counts.context, base))
    terms.append(-mpmath.log(mpmath.log(explicit + 3, 2)) - sum(lengths) * mpmath.log(size))
    top = max(terms)
    return top + mpmath.log(mpmath.fsum(mpmath.exp(v - top) for v in terms))


def _extend_last(x, a):
    if isinstance(x, SymbolSeq):
        return x.extended([a])
    return MultiSample(x.samples[:-1] + [x.samples[-1].extended([a])])


class TestFinalConditionalExactOracle:
    """R(a | x) = R(x a) / R(x) at 40 digits.  At |A| = 256 a subset of
    symbols is checked: the eight likeliest and four at random."""

    @pytest.mark.parametrize("size", [2, 3, 256])
    @pytest.mark.parametrize("lengths,concentration", [
        ((2000,), 0.5), ((300, 1200, 0), 0.5), ((40, 1), 0.5),
        # near-uniform: at |A| = 256 the batch context terms cancel most here
        ((500,), 3.0),
    ])
    def test_batch_and_sequential_within_bounds(self, size, lengths, concentration):
        rng = np.random.default_rng(size * 7 + len(lengths))
        probs = rng.dirichlet(np.full(size, concentration))
        x = _as_x(Alphabet.of_size(size), [rng.choice(size, size=n, p=probs) for n in lengths])
        batch, _ = final_conditional(x)
        sequential = MixtureEstimator(x.alphabet).consume(x).conditional_probs()
        symbols = range(size) if size <= 3 else sorted(
            set(np.argsort(sequential)[-8:].tolist()) | set(rng.choice(size, size=4).tolist()))
        with mpmath.workdps(40):
            log_r = _exact_log_r(x, 16)
            for a in symbols:
                exact = mpmath.exp(_exact_log_r(_extend_last(x, a), 16) - log_r)
                assert abs(batch[a] - exact) / exact < 1e-10
                assert abs(sequential[a] - exact) / exact < 1e-13


class TestLog2ProbPair:
    """log2 R(x) and log2 R(x ⊕ word) from one count per order against two
    r_log2prob calls, the definition r_cond_log2prob had before."""

    @pytest.mark.parametrize("size", [1, 2, 3, 256])
    @pytest.mark.parametrize("order", [0, 2, 16])
    @pytest.mark.parametrize("lengths,word_length", [
        ((30,), 3), ((0,), 2), ((1,), 0), ((9,), 25),
        # multi-samples with empty and one-symbol samples
        ((7, 0, 1), 3), ((0, 1), 1), ((0, 0), 0), ((40, 1, 0), 0),
        ((5, 1, 0), 12),  # a word longer than every sample
    ])
    def test_equals_two_r_log2prob_calls(self, size, order, lengths, word_length):
        rng = np.random.default_rng(size * 100 + order * 10 + sum(lengths) + word_length)
        # few letters, so the word's windows also occur in x
        letters = rng.choice(size, size=min(size, 3), replace=False)
        samples = [rng.choice(letters, size=n) for n in lengths]
        x = _as_x(Alphabet.of_size(size), samples)
        if len(samples) == 1 and word_length % 2:  # a one-sample MultiSample too
            x = MultiSample([x])
        word = rng.choice(letters, size=word_length)
        pair = estimators._r_log2prob_pair(x, word, order)
        assert pair == (r_log2prob(x, order), r_log2prob(x.extended(word), order))
        assert r_cond_log2prob(word, x, order) == (
            r_log2prob(x.extended(word), order) - r_log2prob(x, order))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            estimators._r_log2prob_pair(seq("01"), [0], -1)

    @pytest.mark.parametrize("argv,orders", [
        (["mixed.txt", "--query", "0110"], 17),
        (["two_samples.txt", "--query", "01101", "--max-order", "1"], 2),
    ])
    def test_estimate_query_counts_once_per_order(self, counted, capsys, argv, orders):
        data = Path(__file__).parent / "data" / argv[0]
        assert cli.main(["estimate", "--in", str(data), *argv[1:]]) == 0
        assert json.loads(capsys.readouterr().out)["query"]["word"] == argv[2]
        assert [args[3] for args in counted] == list(range(orders))


def test_batch_mixtures_from_concurrent_threads_match_serial_calls():
    # threads counting different inputs at once, more of them than cores
    # and switching often, must not see each other's state
    rng = np.random.default_rng(7)
    inputs = [_as_x(Alphabet.of_size(size), [rng.integers(0, size, n) for n in lengths])
              for size, lengths in [(2, (20000,)), (4, (3000,) * 8), (3, (5000, 0, 7, 900)),
                                    (256, (4000, 4000))]]
    orders = [inputs[k:] + inputs[:k] for k in range(4)]

    def calls(xs):
        return [(r_log2prob(x), estimators._r_log2prob_pair(x, [0, 1]),
                 final_conditional(x)[1], final_conditional(x)[0].tolist()) for x in xs]

    serial = [calls(xs) for xs in orders]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def worker(k):
        start.wait()
        results[k] = calls(orders[k])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


def test_peak_memory_of_large_alphabet_stays_small(child_peak_kib):
    # one sparse row per context node: 2e4 uniform symbols over 256
    # letters create about 3e5 nodes; dense |A|-float rows needed 1.1 GB
    _, kib = child_peak_kib(
        "import numpy as np\n"
        "from uctseries.estimators import MixtureEstimator\n"
        "from uctseries.seqmodel import Alphabet, SymbolSeq\n"
        "a = Alphabet.of_size(256)\n"
        "x = SymbolSeq(a, np.random.default_rng(0).integers(0, 256, 20000))\n"
        "MixtureEstimator(a).consume(x)\n"
    )
    assert kib < 400 * 1024


class TestSideInformation:
    def test_product_is_a_size(self):
        assert PairAlphabet(BINARY, BINARY).product == Alphabet.of_size(4)
        assert PairAlphabet(Alphabet(("a", "b")), Alphabet.of_size(3)).product.size == 6

    def test_empty_history_uniform(self):
        pair = PairAlphabet(BINARY, BINARY)
        for y in range(2):
            lps = side_info_cond_log2probs(pair, [], y)
            assert np.exp2(lps) == pytest.approx(np.full(2, 0.5), abs=1e-12)

    def test_normalization_on_random_histories(self):
        rng = np.random.default_rng(67)
        pair = PairAlphabet(BINARY, Alphabet.of_size(3))
        for _ in range(5):
            history = [
                (int(rng.integers(0, 2)), int(rng.integers(0, 3)))
                for _ in range(rng.integers(0, 15))
            ]
            lps = side_info_cond_log2probs(pair, history, int(rng.integers(0, 3)))
            assert np.exp2(lps).sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_pair_matches_explicit_ratio(self):
        pair = PairAlphabet(BINARY, BINARY)
        history = [(0, 1)]
        y_next = 0
        lps = side_info_cond_log2probs(pair, history, y_next)
        hist_seq = SymbolSeq(pair.product, [0 * 2 + 1])  # the pair (x, y) is x * |Y| + y
        joint = np.array(
            [
                2 ** r_log2prob(hist_seq.extended([x * 2 + y_next]))
                for x in range(2)
            ]
        )
        assert np.exp2(lps) == pytest.approx(joint / joint.sum(), abs=1e-12)

    @pytest.mark.parametrize("ny", [1, 3])
    def test_matches_sequential_mixture(self, ny):
        rng = np.random.default_rng(ny)
        pair = PairAlphabet(Alphabet.of_size(3), Alphabet.of_size(ny))
        for n in (0, 1, 5, 400):
            x, y = rng.integers(0, 3, n), rng.integers(0, ny, n + 1)
            for order in (0, 2, 16):
                lps = side_info_cond_log2probs(pair, np.column_stack([x, y[:-1]]),
                                               int(y[-1]), order)
                codes = SymbolSeq(pair.product, x * ny + y[:-1])
                joint = MixtureEstimator(pair.product, order).consume(
                    codes).conditional_probs()[int(y[-1])::ny]
                np.testing.assert_allclose(np.exp2(lps), joint / joint.sum(),
                                           rtol=1e-9, atol=0)

    @pytest.mark.parametrize("history,y_next", [
        ([(2, 0)], 0), ([(0, 3)], 1), ([(1, 1), (-1, 0)], 1), ([(0, 1)], 3), ([], -1),
    ])
    def test_out_of_range_component_rejected(self, history, y_next):
        pair = PairAlphabet(BINARY, Alphabet.of_size(3))
        with pytest.raises(AlphabetMismatchError):
            side_info_cond_log2probs(pair, history, y_next)


class TestMarkovSource:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarkovSource(BINARY, 0, [[0.6, 0.3]])

    @pytest.mark.parametrize("table,initial", [
        ([[math.nan, math.nan]], None),
        ([[math.nan, 1.0]], None),
        ([[0.5, 0.5], [0.5, 0.5]], [math.nan, math.nan]),
        ([[0.5, 0.5], [0.5, 0.5]], [math.nan, 1.0]),
    ])
    def test_non_finite_parameters_rejected(self, table, initial):
        order = 0 if initial is None else 1
        with pytest.raises(ValueError, match="finite|probability"):
            MarkovSource(BINARY, order, table, initial=initial)

    def test_iid_log2prob(self):
        src = MarkovSource.iid(BINARY, [0.7, 0.3])
        x = seq("0010")
        assert src.log2prob(x) == pytest.approx(log2(0.7**3 * 0.3), abs=1e-12)

    def test_stationary_of_flip_chain(self):
        src = MarkovSource(BINARY, 1, [[0.1, 0.9], [0.9, 0.1]])
        assert src.initial == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_entropy_rate_order1(self):
        src = MarkovSource(BINARY, 1, [[0.8, 0.2], [0.2, 0.8]])
        h = -(0.8 * log2(0.8) + 0.2 * log2(0.2))
        assert src.entropy_rate() == pytest.approx(h, abs=1e-9)
        # conditional entropies decrease toward the rate
        hs = [src.conditional_entropy(k) for k in range(4)]
        assert all(hs[i] >= hs[i + 1] - 1e-12 for i in range(3))
        assert hs[1] == pytest.approx(h, abs=1e-9)

    def test_multisample_is_product(self):
        src = MarkovSource(BINARY, 1, [[0.6, 0.4], [0.3, 0.7]])
        ms = multi("010", "11")
        assert src.log2prob(ms) == pytest.approx(
            src.log2prob(seq("010")) + src.log2prob(seq("11")), abs=1e-12
        )

    def test_zero_probability(self):
        src = MarkovSource.iid(BINARY, [1.0, 0.0])
        assert src.log2prob(seq("01")) == -math.inf

    def test_sample_deterministic_and_distributed(self):
        src = MarkovSource(BINARY, 1, [[0.9, 0.1], [0.1, 0.9]])
        a = src.sample(500, np.random.default_rng(5)).symbols
        b = src.sample(500, np.random.default_rng(5)).symbols
        assert (a == b).all()
        flips = np.mean(a[1:] != a[:-1])
        assert flips == pytest.approx(0.1, abs=0.05)

    @pytest.mark.parametrize("size,order", [(2, 1), (12, 1), (12, 2)])
    def test_text_round_trip(self, size, order):
        # past 10 symbols a context is written as comma-separated indices
        table = np.random.default_rng(size + order).dirichlet(
            np.ones(size), size=size ** order)
        src = MarkovSource(Alphabet.of_size(size), order, table)
        again = MarkovSource.from_text(src.to_text())
        assert np.allclose(src.table, again.table)
        assert again.order == order

    def test_text_round_trip_preserves_initial(self):
        src = MarkovSource(BINARY, 1, [[0.25, 0.75], [0.5, 0.5]],
                           initial=[0.9, 0.1])
        again = MarkovSource.from_text(src.to_text())
        assert np.allclose(again.initial, [0.9, 0.1])

    def test_conditional_reads_the_last_order_symbols(self):
        src = MarkovSource(BINARY, 2, [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]])
        assert src.conditional([1, 0]).tolist() == [0.7, 0.3]
        assert src.conditional(np.array([0, 1, 1])).tolist() == [0.6, 0.4]
        for short in ([], [1]):
            with pytest.raises(ValueError, match="needs 2 symbols"):
                src.conditional(short)
        for outside in ([0, 3], [5, 7], [-1, 0], [2, 0, 1]):
            with pytest.raises(AlphabetMismatchError):
                src.conditional(outside)
        assert MarkovSource.iid(BINARY, [0.7, 0.3]).conditional([]).tolist() == [0.7, 0.3]

    def test_file_rejects_bad_rows(self):
        bad = "alphabet 2\norder 0\n0.5 0.6\n"
        with pytest.raises(ValueError):
            MarkovSource.from_text(bad)


def brute_source_log2prob(src, samples):
    """Independent oracle: each sample's head priced by the sum of the
    `initial` entries of every context that begins with it, and each later
    symbol by `conditional` of its `order` predecessors."""
    size, order = src.alphabet.size, src.order
    total = 0.0
    for s in samples:
        head = min(len(s), order)
        probs = [src.conditional(s[i - order:i])[s[i]] for i in range(order, len(s))]
        if head:
            probs.append(sum(src.initial[v] for v in range(size ** order)
                             if [v // size ** (order - 1 - j) % size for j in range(head)]
                             == list(s[:head])))
        total += sum(log2(p) if p > 0 else -math.inf for p in probs)
    return total


@st.composite
def _source_cases(draw):
    """(source, samples): alphabets 1-4, orders 0-3, tables with and
    without zero entries, and samples that are empty, shorter than the
    order or longer, drawn uniformly or from the source itself."""
    size = draw(st.integers(1, 4))
    order = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = rng.dirichlet(np.ones(size), size=size ** order)
    if draw(st.booleans()):  # zero entries; each row keeps its largest
        table[(rng.random(table.shape) < 0.5) & (table < table.max(1, keepdims=True))] = 0.0
        table /= table.sum(1, keepdims=True)
    src = MarkovSource(Alphabet.of_size(size), order, table)
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 20]), min_size=1, max_size=4))
    if draw(st.booleans()):
        return src, [src.sample(t, rng).symbols.tolist() for t in lengths]
    return src, [draw(st.lists(st.integers(0, size - 1), min_size=t, max_size=t))
                 for t in lengths]


class TestMarkovSourceOracle:
    """log2prob and the stationary `initial` against brute force."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_source_cases())
    def test_log2prob_matches_brute_force(self, case):
        src, samples = case
        want = brute_source_log2prob(src, samples)
        assert src.log2prob(_as_x(src.alphabet, samples)) == pytest.approx(
            want, rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_source_cases())
    def test_initial_is_stationary(self, case):
        src, _ = case
        step = (src.initial[:, None] * src.table).reshape(src.alphabet.size, -1).sum(0)
        np.testing.assert_allclose(step, src.initial, rtol=0, atol=1e-12)

    def test_zero_entries_give_minus_infinity(self):
        # state 0 absorbs, so the stationary head never starts with 1
        src = MarkovSource(BINARY, 1, [[1.0, 0.0], [0.5, 0.5]])
        assert src.initial.tolist() == [1.0, 0.0]
        assert src.log2prob(seq("000")) == 0.0
        assert src.log2prob(multi("00", "", "0")) == 0.0
        for x in (seq("1"), seq("01"), multi("00", "10"), multi("", "001")):
            assert src.log2prob(x) == -math.inf


def loop_sample(src, t, rng):
    """Oracle: a per-symbol loop over one Python float per draw, with each
    row's cumulative sums rebuilt on every call."""
    size, order = src.alphabet.size, src.order
    out = np.empty(t, dtype=np.int64)
    if t == 0:
        return out
    if order == 0:
        out[:] = rng.choice(size, size=t, p=src.table[0])
        return out
    ctx = int(rng.choice(src.initial.size, p=src.initial))
    head = [ctx // size ** (order - 1 - j) % size for j in range(order)]
    n_head = min(t, order)
    out[:n_head] = head[:n_head]
    mod = size ** order
    cum_rows = [row.cumsum().tolist() for row in src.table]
    u = rng.random(max(t - order, 0)).tolist()
    for i in range(order, t):
        a = bisect_right(cum_rows[ctx], u[i - order])
        a = min(a, size - 1)  # guard against cumulative rounding at 1.0
        out[i] = a
        ctx = (ctx * size + a) % mod
    return out


class TestSampleOracle:
    """`sample` against the per-symbol loop: the same symbols from the same
    draws, and the generator left in the same state, since callers such as
    `avg_kl_error` share one generator across calls."""

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
    def test_same_stream_as_the_loop(self, size, order, zeros):
        table_rng = np.random.default_rng(1000 * size + 10 * order + zeros)
        table = table_rng.dirichlet(np.ones(size), size=size ** order)
        if zeros:  # each row keeps its largest entry
            table[(table_rng.random(table.shape) < 0.5)
                  & (table < table.max(1, keepdims=True))] = 0.0
            table /= table.sum(1, keepdims=True)
        src = MarkovSource(Alphabet.of_size(size), order, table)
        chunk = estimators._SAMPLE_CHUNK
        lengths = [0, 1, order, order + 1, order + chunk - 1, order + chunk,
                   order + chunk + 1, order + 2 * chunk + 7]
        rng, oracle_rng = np.random.default_rng(size + order), np.random.default_rng(size + order)
        for t in lengths:  # one generator across the calls
            x = src.sample(t, rng)
            assert x.alphabet is src.alphabet
            assert x.symbols.dtype == np.int64
            assert x.symbols.tolist() == loop_sample(src, t, oracle_rng).tolist(), t
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, t

    def test_seed_argument_is_the_same_stream(self):
        src = MarkovSource(BINARY, 2, [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.3, 0.7]])
        assert (src.sample(300, 7).symbols
                == loop_sample(src, 300, np.random.default_rng(7))).all()

    def test_draw_above_a_rounded_row_total_takes_the_last_symbol(self):
        # rows within the 1e-9 tolerance whose sums fall short of 1, so a
        # draw may land above a row's total; random draws almost never do
        a3 = Alphabet.of_size(3)
        src = MarkovSource(a3, 1, [[0.5, 0.25, 0.2499999995], [0.1, 0.1, 0.8],
                                   [0.2, 0.3, 0.4999999995]])
        for ctx, row in enumerate(src.table):
            total = row.cumsum()[-1]
            for draw in (total, np.nextafter(1.0, 0.0)):
                assert bisect_right(src._cum_rows[ctx], draw) == 2
        ten = MarkovSource(Alphabet.of_size(10), 1, np.full((10, 10), 0.1))
        assert ten.table[0].cumsum()[-1] < 1.0  # ten 0.1s add up short of 1
        assert bisect_right(ten._cum_rows[0], np.nextafter(1.0, 0.0)) == 9

    @pytest.mark.parametrize("order", [0, 1])
    def test_negative_length_is_a_value_error(self, order):
        src = MarkovSource(BINARY, order, np.full((2 ** order, 2), 0.5))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample length t .* got -1"):
            src.sample(-1, rng)
        assert rng.bit_generator.state == state


class TestAvgKlError:
    def test_self_distance_zero(self):
        src = MarkovSource.iid(BINARY, [0.5, 0.5])
        est = avg_kl_error(src, src.log2prob, t=50, trials=20, seed=0)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_add_half_redundancy_positive_and_small(self):
        src = MarkovSource.iid(BINARY, [0.7, 0.3])
        est = avg_kl_error(
            src, lambda x: kt_log2prob(x, 0), t=256, trials=120, seed=1
        )
        assert 0 < est.value < (log2(256) + 4) / (2 * 256)

    def test_zero_probability_reports_infinity(self):
        src = MarkovSource.iid(BINARY, [0.5, 0.5])
        degenerate = MarkovSource.iid(BINARY, [1.0, 0.0])
        est = avg_kl_error(src, degenerate.log2prob, t=20, trials=10, seed=2)
        assert est.value == math.inf


class TestKolmogorovConsistency:
    def test_laplace_and_mixture_marginalize(self):
        for t in range(5):
            for xs in product(range(2), repeat=t):
                x = SymbolSeq(BINARY, list(xs))
                for fn in (laplace_log2prob, r_log2prob):
                    joint = log2_sum(
                        [fn(SymbolSeq(BINARY, list(xs) + [a])) for a in range(2)]
                    )
                    assert joint == pytest.approx(fn(x), abs=1e-10)


class TestMonteCarloMatchesEnumeration:
    def test_avg_kl_against_exact_enumeration(self):
        # exact expected per-letter redundancy by summing over all strings
        src = MarkovSource.iid(BINARY, [0.7, 0.3])
        t = 8
        exact = 0.0
        for xs in product(range(2), repeat=t):
            x = SymbolSeq(BINARY, list(xs))
            lp = src.log2prob(x)
            exact += 2 ** lp * (lp - kt_log2prob(x, 0)) / t
        est = avg_kl_error(src, lambda x: kt_log2prob(x, 0), t=t,
                           trials=4000, seed=8)
        assert est.value == pytest.approx(exact, abs=4 * est.stderr)
        assert exact <= (log2(t) + 4) / (2 * t)


class TestMixtureRedundancyBound:
    def test_markov_truth_fit(self):
        # per-letter redundancy against an order-1 truth stays within
        # (|A|-1)|A| log2(t) / (2t) + c/t for one constant c
        src = MarkovSource(BINARY, 1, [[0.75, 0.25], [0.3, 0.7]])
        residuals = []
        values = []
        for t in (256, 1024, 4096):
            est = avg_kl_error(src, r_log2prob, t=t, trials=60, seed=t)
            values.append(est.value)
            residuals.append(t * est.value - math.log2(t))
        assert values[0] > values[1] > values[2] > 0
        assert max(residuals) < 10.0


class TestPredictionErrorDecay:
    def test_mean_squared_conditional_error_decreases(self):
        src = MarkovSource(BINARY, 1, [[0.85, 0.15], [0.25, 0.75]])
        rng = np.random.default_rng(101)
        horizons = (150, 600, 2400)
        errs = {t: [] for t in horizons}
        for _ in range(30):
            x = src.sample(max(horizons), rng).symbols
            est = MixtureEstimator(BINARY)
            sq = 0.0
            done = {}
            for i, a in enumerate(x):
                p_true = src.conditional(x[max(0, i - 1):i])[1] if i else src.initial @ src.table[:, 1]
                p_est = est.conditional_probs()[1]
                sq += (p_true - p_est) ** 2
                est.append(int(a))
                if i + 1 in horizons:
                    done[i + 1] = sq / (i + 1)
            for t, v in done.items():
                errs[t].append(v)
        means = [np.mean(errs[t]) for t in horizons]
        assert means[0] > means[1] > means[2]
