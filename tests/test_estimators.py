import math
from itertools import product
from math import lgamma, log2

import numpy as np
import pytest

from uctseries.estimators import (
    KtState,
    MarkovSource,
    MixtureEstimator,
    PairAlphabet,
    avg_kl_error,
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
from uctseries.seqmodel import Alphabet, MultiSample, SymbolSeq

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

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(61)
        arr = rng.integers(0, 2, size=25)
        total = 0.0
        for i in range(arr.size):
            total += r_cond_log2prob([arr[i]], SymbolSeq(BINARY, arr[:i]))
        assert total == pytest.approx(r_log2prob(SymbolSeq(BINARY, arr)), abs=1e-10)


class TestSideInformation:
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
        hist_seq = SymbolSeq(pair.product, [pair.pair_index(0, 1)])
        joint = np.array(
            [
                2 ** r_log2prob(hist_seq.extended([pair.pair_index(x, y_next)]))
                for x in range(2)
            ]
        )
        assert np.exp2(lps) == pytest.approx(joint / joint.sum(), abs=1e-12)


class TestMarkovSource:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarkovSource(BINARY, 0, [[0.6, 0.3]])

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

    def test_text_round_trip(self):
        src = MarkovSource(BINARY, 1, [[0.25, 0.75], [0.5, 0.5]])
        again = MarkovSource.from_text(src.to_text())
        assert np.allclose(src.table, again.table)
        assert again.order == 1

    def test_text_round_trip_preserves_initial(self):
        src = MarkovSource(BINARY, 1, [[0.25, 0.75], [0.5, 0.5]],
                           initial=[0.9, 0.1])
        again = MarkovSource.from_text(src.to_text())
        assert np.allclose(again.initial, [0.9, 0.1])

    def test_file_rejects_bad_rows(self):
        bad = "alphabet 2\norder 0\n0.5 0.6\n"
        with pytest.raises(ValueError):
            MarkovSource.from_text(bad)


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
