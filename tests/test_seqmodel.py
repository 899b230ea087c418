import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctseries.estimators import (
    final_conditional,
    kt_log2prob,
    r_cond_log2prob,
    r_log2prob,
)
from uctseries.seqmodel import (
    Alphabet,
    AlphabetMismatchError,
    MultiSample,
    SymbolSeq,
    as_sample_arrays,
    count_occurrences,
    pair_counts,
    window_counts,
)
from uctseries.testing import empirical_entropy

BINARY = Alphabet.of_size(2)


def seq(text, alphabet=BINARY):
    return SymbolSeq.from_labels(alphabet, text)


def multi(*texts, alphabet=BINARY):
    return MultiSample([seq(t, alphabet) for t in texts])


def brute_window_count(samples, word):
    """Independent oracle: direct window scan per sample."""
    total = 0
    for s in samples:
        for i in range(len(s) - len(word) + 1):
            if list(s[i:i + len(word)]) == list(word):
                total += 1
    return total


class TestAlphabet:
    def test_size_and_labels(self):
        a = Alphabet(("a", "b", "c"))
        assert a.size == 3
        assert a.index("b") == 1

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_unknown_label(self):
        with pytest.raises(AlphabetMismatchError):
            BINARY.index("x")

    def test_single_letter_alphabet_allowed(self):
        assert Alphabet.of_size(1).size == 1

    def test_of_size_builds_no_labels(self):
        start = time.perf_counter()
        a = Alphabet.of_size(1 << 22)
        assert time.perf_counter() - start < 0.05
        assert a.size == 1 << 22

    def test_equality_compares_size_and_explicit_labels(self):
        assert Alphabet(("0", "1")) == Alphabet.of_size(2)
        assert hash(Alphabet(("0", "1"))) == hash(Alphabet.of_size(2))
        assert Alphabet(("a", "b")) != Alphabet.of_size(2)
        assert Alphabet(("1", "0")) != Alphabet.of_size(2)
        assert Alphabet.of_size(2) != Alphabet.of_size(3)

    @pytest.mark.parametrize("alphabet,labels", [
        (Alphabet.of_size(12), [str(i) for i in range(12)]),
        (Alphabet(("up", "down", "flat")), ["up", "down", "flat"]),
    ])
    def test_labels_round_trip(self, alphabet, labels):
        assert list(alphabet.labels) == labels
        assert [alphabet.index(label) for label in labels] == list(range(alphabet.size))
        x = SymbolSeq.from_labels(alphabet, labels[::-1])
        assert x.symbols.tolist() == list(range(alphabet.size))[::-1]
        assert x.to_labels() == labels[::-1]
        with pytest.raises(AlphabetMismatchError, match="unknown symbol label"):
            SymbolSeq.from_labels(alphabet, [labels[0], "?"])


class TestSymbolSeq:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            SymbolSeq(BINARY, [0, 2])

    def test_label_round_trip(self):
        s = seq("0110")
        assert s.to_labels() == ["0", "1", "1", "0"]

    def test_extended(self):
        s = seq("01").extended([1])
        assert s.symbols.tolist() == [0, 1, 1]


# characters for labels and text: non-ASCII, above the BMP, CR and LF,
# a space and a byte order mark
_CHARS = ["0", "1", "a", "\u00e9", "\u4e2d", "\U0001f600", "\r", "\n", " ", "\ufeff"]


class TestFromLabels:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_str_matches_one_lookup_per_character(self, data):
        labels = data.draw(st.lists(st.sampled_from(_CHARS), min_size=1, unique=True))
        alphabet = Alphabet(tuple(labels))
        # runs of labels and CRLF pairs, then maybe more text with any character
        pieces = data.draw(st.lists(st.sampled_from(labels + ["\r\n"]), max_size=30))
        tail = data.draw(st.lists(st.sampled_from(_CHARS), max_size=3))
        text = "".join(pieces + tail)
        try:
            expected = [alphabet.index(c) for c in text]
        except AlphabetMismatchError as exc:
            with pytest.raises(AlphabetMismatchError) as raised:
                SymbolSeq.from_labels(alphabet, text)
            assert str(raised.value) == str(exc)  # names the first unknown character
            return
        x = SymbolSeq.from_labels(alphabet, text)
        assert x.symbols.dtype == np.int64 and x.symbols.tolist() == expected
        assert SymbolSeq.from_labels(alphabet, list(text)).symbols.tolist() == expected

    def test_empty_str(self):
        x = SymbolSeq.from_labels(Alphabet(("\U0001f600",)), "")
        assert x.symbols.dtype == np.int64 and len(x) == 0

    def test_error_names_the_first_unknown_character(self):
        with pytest.raises(AlphabetMismatchError, match=r"^unknown symbol label '\\r'$"):
            SymbolSeq.from_labels(BINARY, "01\r\n2")

    def test_str_over_multi_character_labels_is_read_per_character(self):
        alphabet = Alphabet(("a", "bc"))
        assert SymbolSeq.from_labels(alphabet, "aa").symbols.tolist() == [0, 0]
        with pytest.raises(AlphabetMismatchError, match="unknown symbol label 'b'"):
            SymbolSeq.from_labels(alphabet, "abc")


class TestMultiSample:
    def test_requires_shared_alphabet(self):
        other = Alphabet(("x", "y"))
        with pytest.raises(AlphabetMismatchError):
            MultiSample([seq("01"), SymbolSeq(other, [0])])

    def test_total_length(self):
        assert multi("0101", "101").total_length == 7

    def test_extended_adds_sample(self):
        ms = multi("01", "10").extended([1, 1])
        assert len(ms.samples) == 3
        assert ms.samples[-1].symbols.tolist() == [1, 1]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5).flatmap(lambda size: st.tuples(
        st.just(size),
        st.lists(st.lists(st.integers(0, size - 1), max_size=6), min_size=1, max_size=5))))
    def test_flat_layout_round_trips(self, case):
        size, samples = case
        alphabet = Alphabet.of_size(size)
        ms = MultiSample([SymbolSeq(alphabet, s) for s in samples])
        assert [s.symbols.tolist() for s in ms.samples] == samples
        assert [arr.tolist() for arr in as_sample_arrays(ms)[1]] == samples
        assert ms.symbols.tolist() == [a for s in samples for a in s]
        assert ms.lengths.tolist() == [len(s) for s in samples]
        assert len(ms) == ms.total_length == sum(map(len, samples))

    @pytest.mark.parametrize("x,symbols,lengths", [
        (seq("01"), [0, 1, 1, 0], [4]),
        (multi("01", ""), [0, 1, 1, 0], [2, 0, 2]),
    ])
    def test_extended_on_both_kinds(self, x, symbols, lengths):
        ext = x.extended([1, 0])
        assert type(ext) is type(x)
        assert ext.symbols.tolist() == symbols and ext.lengths.tolist() == lengths
        with pytest.raises(AlphabetMismatchError):
            x.extended([0, 2])

    @pytest.mark.parametrize("x", [seq("011"), multi("01", "1")])
    def test_extended_takes_a_symbol_seq_word(self, x):
        word = seq("10")
        assert x.extended(word).symbols.tolist() == x.extended([1, 0]).symbols.tolist()
        assert r_cond_log2prob(word, x) == r_cond_log2prob([1, 0], x)
        with pytest.raises(AlphabetMismatchError):
            x.extended(SymbolSeq(Alphabet.of_size(3), [1, 0]))

    def test_samples_are_views_of_the_flat_array(self):
        ms = multi("0110", "", "1", "00")
        samples, arrays = ms.samples, as_sample_arrays(ms)[1]
        assert [s.symbols.tolist() for s in samples] == [a.tolist() for a in arrays]
        assert all(s.alphabet == BINARY for s in samples)
        assert all(np.shares_memory(s.symbols, ms.symbols) for s in samples if len(s))

    def test_copies_its_samples(self):
        s = seq("0110")
        ms = MultiSample([s, seq("1")])
        s.symbols[0] = 1
        assert ms.samples[0].symbols.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("fn", [
    lambda x: window_counts(x, 1),
    lambda x: kt_log2prob(x, 1),
    r_log2prob,
    final_conditional,
    lambda x: empirical_entropy(x, 1),
], ids=["window_counts", "kt_log2prob", "r_log2prob", "final_conditional",
        "empirical_entropy"])
def test_plain_list_is_a_type_error(fn):
    with pytest.raises(TypeError, match="expected SymbolSeq or MultiSample, got list"):
        fn([0, 1, 0])


class TestCountOccurrences:
    def test_000100_has_three_00(self):
        assert count_occurrences(seq("000100"), [0, 0]) == 3

    def test_boundary_not_straddled(self):
        assert count_occurrences(multi("0010", "011"), [0, 0]) == 1

    def test_empty_sequence(self):
        assert count_occurrences(seq(""), [0]) == 0

    def test_word_longer_than_sample(self):
        assert count_occurrences(seq("01"), [0, 1, 0]) == 0

    def test_word_over_wrong_alphabet(self):
        other = Alphabet(("a", "b"))
        with pytest.raises(AlphabetMismatchError):
            count_occurrences(seq("01"), SymbolSeq(other, [0]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for size in (2, 70000):
            alphabet = Alphabet.of_size(size)
            letters = np.unique([0, 1, size - 1])  # few letters, so words recur
            for _ in range(25):
                arrs = [rng.choice(letters, size=rng.integers(0, 30)) for _ in range(2)]
                ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
                k = int(rng.integers(1, 7))  # 70000 symbols are rank-renamed from k = 4
                word = rng.choice(letters, size=k)
                assert count_occurrences(ms, word) == brute_window_count(
                    [a.tolist() for a in arrs], word.tolist()
                )


class TestContextCounts:
    def test_paper_multisample_counts(self):
        table = pair_counts(multi("0101", "101"), 1)
        assert table[(0,)].tolist() == [0, 3]
        assert table[(1,)].tolist() == [2, 0]

    def test_order_zero_counts_sum_to_length(self):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 2, size=40)
        assert pair_counts(SymbolSeq(BINARY, arr), 0)[()].sum() == 40

    def test_row_sum_equals_context_total(self):
        rng = np.random.default_rng(11)
        x = SymbolSeq(BINARY, rng.integers(0, 2, size=200))
        for k in range(4):
            counts = window_counts(x, k)
            table = pair_counts(x, k)
            totals = [table[ctx].sum() for ctx in sorted(table)]
            assert counts.context.tolist() == totals

    def test_counts_match_window_scan(self):
        rng = np.random.default_rng(5)
        x = SymbolSeq(BINARY, rng.integers(0, 2, size=50))
        for k in range(4):
            for ctx, row in pair_counts(x, k).items():
                for a in range(2):
                    word = list(ctx) + [a]
                    assert row[a] == brute_window_count([x.symbols.tolist()], word)

    def test_multisample_counts_are_per_sample_sums(self):
        rng = np.random.default_rng(29)
        arrs = [rng.integers(0, 2, size=n) for n in (15, 9, 21)]
        ms = MultiSample([SymbolSeq(BINARY, a) for a in arrs])
        joint = pair_counts(ms, 2)
        separate = [pair_counts(SymbolSeq(BINARY, a), 2) for a in arrs]
        for ctx, row in joint.items():
            total = sum(tab.get(ctx, np.zeros(2, dtype=int)) for tab in separate)
            assert (row == total).all()

    def test_sample_shorter_than_word_contributes_nothing(self):
        ms = multi("01", "0")
        assert count_occurrences(ms, [0, 1]) == 1


def brute_windows(samples, k):
    """Independent oracle: every window of length k, counted per sample."""
    counts = {}
    for s in samples:
        for i in range(len(s) - k + 1):
            w = tuple(s[i:i + k])
            counts[w] = counts.get(w, 0) + 1
    return counts


class TestWindowCountKernel:
    @pytest.mark.parametrize("size", [1, 2, 3, 256, 70000])
    def test_every_order_matches_brute_force(self, size):
        # orders 0..16 (the default max order) pass the rank renaming at
        # order 7 for 256 symbols and at order 3 for 70000; the samples
        # include an empty one, ones shorter than the longest windows, and
        # adjacent ones of lengths m and m+1, whose one window ends exactly
        # at a sample boundary
        rng = np.random.default_rng(size)
        alphabet = Alphabet.of_size(size)
        letters = np.unique(np.r_[0, size - 1, rng.integers(0, size, size=2)])
        for _ in range(6):
            lengths = [0, 1, 5, int(rng.integers(8, 60)), int(rng.integers(0, 30))]
            for m in range(17):
                sizes = lengths[:3] + [m, m + 1] + lengths[3:]
                arrs = [rng.choice(letters, size=n) for n in sizes]
                ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
                copies = [s.symbols.copy() for s in ms.samples]
                counts = window_counts(ms, m)
                assert all(np.array_equal(s.symbols, c) for s, c in zip(ms.samples, copies))
                oracle = brute_windows([a.tolist() for a in arrs], m + 1)
                windows = sorted(oracle)
                assert counts.pair.tolist() == [oracle[w] for w in windows]
                contexts = {}
                for w in windows:
                    contexts.setdefault(w[:-1], []).append(oracle[w])
                assert counts.context.tolist() == [sum(c) for c in contexts.values()]
                runs = [len(c) for c in contexts.values()]
                assert counts.starts.tolist() == np.cumsum([0] + runs)[:-1].tolist()
                assert counts.codes.size == sum(max(0, a.size - m) for a in arrs)
                if m not in (0, 3, 7, 10, 16):
                    continue  # the dict view allocates an |A|-row per context
                table = pair_counts(ms, m)
                assert {ctx + (int(a),): int(row[a]) for ctx, row in table.items()
                        for a in np.flatnonzero(row)} == oracle

    @pytest.mark.parametrize("size", [1, 2, 3, 256, 70000])
    def test_long_samples_match_brute_force(self, size):
        # about 3700 symbols over at most four letters: at |A| = 2 and 3 the
        # tally counts the low orders and the sort the high ones (|A| = 1
        # only tallies, 70000 only sorts, 256 tallies order 0); at 256 and
        # 70000 the rank renaming runs inside a doubling step (orders >= 8
        # and >= 4) and before an added symbol (orders 7 and 3)
        rng = np.random.default_rng(size + 1)
        alphabet = Alphabet.of_size(size)
        letters = np.unique(np.r_[0, size - 1, rng.integers(0, size, size=2)])
        arrs = [rng.choice(letters, size=n) for n in (2500, 0, 3, 1200)]
        ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
        samples = [a.tolist() for a in arrs]
        repeated = [int(letters[0])] * 40
        for m in (0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 16):
            counts = window_counts(ms, m)
            oracle = brute_windows(samples, m + 1)
            windows = sorted(oracle)
            assert counts.pair.tolist() == [oracle[w] for w in windows]
            assert np.isin(counts.codes, counts.windows).all()
            firsts = [i for i, w in enumerate(windows) if i == 0 or w[:-1] != windows[i - 1][:-1]]
            assert counts.starts.tolist() == firsts
            _, grouped = np.unique(counts.windows // size, return_index=True)
            assert grouped.tolist() == firsts
            for word in (samples[0][100:101 + m], samples[3][-m - 1:], repeated[:m + 1]):
                assert count_occurrences(ms, word) == brute_window_count(samples, word)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_property_matches_brute_force(self, data):
        size = data.draw(st.sampled_from([1, 2, 3, 256, 70000]))
        # large letters make large codes, which would overflow first
        letters = [0, size // 2, size - 1] + data.draw(st.lists(st.integers(0, size - 1),
                                                                max_size=1))
        samples = data.draw(st.lists(st.lists(st.sampled_from(letters), max_size=40),
                                     min_size=1, max_size=4))
        m = data.draw(st.integers(0, 12))
        alphabet = Alphabet.of_size(size)
        counts = window_counts(MultiSample([SymbolSeq(alphabet, s) for s in samples]), m)
        oracle = brute_windows(samples, m + 1)
        windows = sorted(oracle)
        assert counts.pair.tolist() == [oracle[w] for w in windows]
        rank = {w: i for i, w in enumerate(windows)}  # codes come sample after sample
        assert np.searchsorted(counts.windows, counts.codes).tolist() == [
            rank[tuple(s[i:i + m + 1])] for s in samples for i in range(len(s) - m)]
        contexts = {}
        for w in windows:
            contexts.setdefault(w[:-1], []).append(oracle[w])
        assert counts.context.tolist() == [sum(c) for c in contexts.values()]
        runs = [len(c) for c in contexts.values()]
        assert counts.starts.tolist() == np.cumsum([0] + runs)[:-1].tolist()

    def test_later_counts_leave_earlier_results_unchanged(self):
        x = multi("0110100111", "1001", "01101")
        before = [window_counts(x, m) for m in range(5)]
        copies = [[field.copy() for field in counts] for counts in before]
        r_log2prob(x)
        final_conditional(x)
        after = [window_counts(x, m) for m in range(5)]
        for counts, kept, again in zip(before, copies, after):
            assert all(np.array_equal(a, b) for a, b in zip(counts, kept))
            assert all(np.array_equal(a, b) for a, b in zip(counts, again))
            assert not np.shares_memory(counts.codes, again.codes)

    def test_numpy_integer_order(self):
        x = multi("0110100", "10")
        assert window_counts(x, np.int64(5)).pair.tolist() == window_counts(x, 5).pair.tolist()

    def test_no_windows(self):
        x = multi("", "01")
        counts = [window_counts(x, m) for m in range(4)]
        assert [c.pair.sum() for c in counts] == [2, 1, 0, 0]
        assert counts[3].context.size == counts[3].starts.size == 0
        assert pair_counts(x, 2) == {}
