import json
import math
import sys

import numpy as np
import pytest

from uctseries.coding import ideal_r_provider, measure_provider
from uctseries.estimators import MarkovSource, kt_log2prob, order_weight, r_log2prob
from uctseries.realvalued import Partition, PiecewiseConstantDensity, quantize
from uctseries.seqmodel import Alphabet, MultiSample, SymbolSeq
from uctseries.testing import TestReport as Report
from uctseries.testing import (
    _cell_probs,
    _entropy_totals,
    _identity_rejections,
    _independence_rejections,
    _partition_si_rejections,
    empirical_entropy,
    identity_test,
    partition_meta_test,
    serial_independence_test,
)

BINARY = Alphabet.of_size(2)


def seq(text, alphabet=BINARY):
    return SymbolSeq.from_labels(alphabet, text)


def brute_entropy(samples, k, size):
    """Independent oracle: entropy from a dictionary window scan."""
    pair, ctx = {}, {}
    windows = 0
    for s in samples:
        windows += len(s) - k
        for i in range(k, len(s)):
            v = tuple(s[i - k:i])
            pair[(v, s[i])] = pair.get((v, s[i]), 0) + 1
            ctx[v] = ctx.get(v, 0) + 1
    acc = 0.0
    for (v, a), n in pair.items():
        acc -= n * math.log2(n / ctx[v])
    return acc / windows


class TestEmpiricalEntropy:
    def test_order0_01010(self):
        expected = -(3 / 5 * math.log2(3 / 5) + 2 / 5 * math.log2(2 / 5))
        assert empirical_entropy(seq("01010"), 0).value == pytest.approx(
            expected, abs=1e-12
        )

    def test_constant_sequence(self):
        assert empirical_entropy(seq("0000"), 0).value == 0.0

    def test_alternating_sequence(self):
        x = seq("01" * 50)
        assert empirical_entropy(x, 1).value == pytest.approx(0.0, abs=1e-12)
        assert empirical_entropy(x, 0).value == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for size in (2, 4):
            alphabet = Alphabet.of_size(size)
            x = SymbolSeq(alphabet, rng.integers(0, size, size=300))
            for k in range(3):
                e = empirical_entropy(x, k)
                assert 0.0 <= e.value <= math.log2(size) + 1e-12

    def test_window_count_multisample(self):
        ms = MultiSample([seq("0101"), seq("101")])
        e = empirical_entropy(ms, 1)
        assert e.window_count == 7 - 2 * 1

    def test_short_sample_rejected(self):
        ms = MultiSample([seq("0101"), seq("1")])
        with pytest.raises(ValueError):
            empirical_entropy(ms, 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            size = int(rng.integers(2, 4))
            alphabet = Alphabet.of_size(size)
            k = int(rng.integers(0, 3))
            arrs = [
                rng.integers(0, size, size=int(rng.integers(k + 1, 40))).tolist()
                for _ in range(int(rng.integers(1, 4)))
            ]
            ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
            assert empirical_entropy(ms, k).value == pytest.approx(
                brute_entropy(arrs, k, size), abs=1e-10
            )

    @pytest.mark.parametrize("size", [2, 3, 256])
    def test_matches_per_context_formula(self, size):
        rng = np.random.default_rng(size)
        alphabet = Alphabet.of_size(size)
        for k in range(3):
            arrs = [rng.integers(0, size, size=n).tolist() for n in (500, 40, 3)]
            ms = MultiSample([SymbolSeq(alphabet, a) for a in arrs])
            assert empirical_entropy(ms, k).value == pytest.approx(
                brute_entropy(arrs, k, size), rel=1e-12
            )


class TestEntropyRate:
    def test_monotone_orders(self):
        src = MarkovSource(BINARY, 1, [[0.7, 0.3], [0.4, 0.6]])
        hs = [src.conditional_entropy(k) for k in range(6)]
        for a, b in zip(hs, hs[1:]):
            assert b <= a + 1e-12
        assert src.entropy_rate() == pytest.approx(hs[-1], abs=1e-9)


class TestIdentityTest:
    def test_matched_code_accepts(self):
        null = MarkovSource.iid(BINARY, [0.7, 0.3])
        provider = measure_provider(null.log2prob, "ideal-null")
        x = null.sample(200, np.random.default_rng(0))
        rep = identity_test(x, null, 0.05, provider)
        assert rep.statistic_bits == pytest.approx(0.0, abs=1e-9)
        assert rep.verdict == "accept"

    def test_zero_probability_null_rejects(self):
        null = MarkovSource.iid(BINARY, [1.0, 0.0])
        rep = identity_test(seq("0001"), null, 0.05)
        assert rep.statistic_bits == math.inf
        assert rep.verdict == "reject"

    def test_biased_data_against_uniform_null_rejects(self):
        null = MarkovSource.uniform(BINARY)
        src = MarkovSource.iid(BINARY, [0.9, 0.1])
        x = src.sample(10_000, np.random.default_rng(1))
        rep = identity_test(x, null, 0.01)
        assert rep.verdict == "reject"
        # statistic near t*KL(0.9||0.5) = t*(1 - h(0.9))
        expect = 10_000 * (1 + 0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert rep.statistic_bits == pytest.approx(expect, rel=0.05)

    def test_threshold_monotone_in_alpha(self):
        null = MarkovSource.uniform(BINARY)
        x = seq("0110100110")
        r1 = identity_test(x, null, 0.05)
        r2 = identity_test(x, null, 0.01)
        assert r2.threshold_bits > r1.threshold_bits
        if r2.rejected:
            assert r1.rejected

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            identity_test(seq("01"), MarkovSource.uniform(BINARY), 1.5)

    def test_report_schema(self):
        keys = {"test", "alpha", "statistic_bits", "threshold_bits", "verdict",
                "provider", "order", "lengths", "sub_reports"}
        rep = identity_test(seq("0101"), MarkovSource.uniform(BINARY), 0.05)
        d = rep.to_dict()
        assert set(d) == keys
        json.dumps(d)  # serializable
        # a partition report and its sub-reports have the same fields
        d = partition_meta_test(np.random.default_rng(3).random(50), 0.05,
                                max_depth=2).to_dict()
        assert set(d) == keys and all(set(sub) == keys for sub in d["sub_reports"])
        assert d["provider"] == "ideal-r" and d["lengths"] == [50]


class TestSerialIndependenceTest:
    def test_alternating_rejects(self):
        x = seq("01" * 5000)
        rep = serial_independence_test(x, 0, 0.01)
        assert rep.verdict == "reject"
        # h*_0 is 1 bit but the mixture compresses to almost nothing
        assert rep.statistic_bits > 9000

    def test_constant_accepts(self):
        x = seq("0" * 500)
        rep = serial_independence_test(x, 0, 0.05)
        assert rep.statistic_bits <= 0.0
        assert rep.verdict == "accept"

    def test_ties_accept(self):
        # craft a provider whose codelength lands exactly on the threshold
        x = seq("0101")
        threshold = math.log2(1 / 0.05)
        provider = measure_provider(
            lambda y: -(len(y) * empirical_entropy(y, 0).value) + threshold,
            "tie-maker",
        )
        tied = serial_independence_test(x, 0, 0.05, provider)
        assert tied.statistic_bits == pytest.approx(tied.threshold_bits, abs=1e-12)
        assert tied.verdict == "accept"

    def test_multisample_coefficient(self):
        ms = MultiSample([seq("001011"), seq("1101")])
        rep = serial_independence_test(ms, 1, 0.05)
        ent = empirical_entropy(ms, 1)
        expected = (10 - 2 * 1) * ent.value - ideal_r_provider().codelength(ms)
        assert rep.statistic_bits == pytest.approx(expected, abs=1e-10)

    def test_markov_order1_data_accepted_at_m1(self):
        src = MarkovSource(BINARY, 1, [[0.9, 0.1], [0.1, 0.9]])
        x = src.sample(5000, np.random.default_rng(3))
        rep = serial_independence_test(x, 1, 0.05)
        assert rep.verdict == "accept"

    def test_single_letter_alphabet_degenerates_cleanly(self):
        # one-cell quantizers produce 1-letter alphabets; everything is
        # deterministic there and the test must accept with statistic 0
        one = Alphabet.of_size(1)
        x = SymbolSeq(one, [0] * 20)
        rep = serial_independence_test(x, 0, 0.05)
        assert rep.statistic_bits == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == "accept"


def lemma_instances(trials, seed):
    """Random (theta, multi-sample) pairs for the product-measure bound."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        size = int(rng.integers(2, 4))
        m = int(rng.integers(0, 3))
        alphabet = Alphabet.of_size(size)
        table = rng.dirichlet(np.ones(size), size=size ** m)
        theta = MarkovSource(alphabet, m, table)
        r = int(rng.integers(1, 4))
        samples = [
            theta.sample(int(rng.integers(m + 1, 16)), rng) for _ in range(r)
        ]
        yield theta, MultiSample(samples), m


class TestProductMeasureEntropyBound:
    def test_random_instances(self):
        # theta(x1 <> ... <> xr) <= 2^{-(t - r m) h*_m}, zero tolerance
        for theta, ms, m in lemma_instances(400, seed=23):
            t = ms.total_length
            r = len(ms.samples)
            ent = empirical_entropy(ms, m)
            lhs = theta.log2prob(ms)
            rhs = -(t - r * m) * ent.value
            assert lhs <= rhs + 1e-9


class TestPartitionMetaTest:
    def test_uniform_data_accepts(self):
        rng = np.random.default_rng(7)
        rep = partition_meta_test(rng.random(400), 0.05, kind="si", max_depth=4)
        assert rep.verdict == "accept"
        assert len(rep.sub_reports) == 4

    def test_sign_dependence_rejected(self):
        from uctseries.realvalued import sign_process_generate

        data = sign_process_generate(0.4, 4000, seed=5)
        rep = partition_meta_test(
            data, 0.05, kind="si", max_depth=4, domain=(-1.0, 1.0)
        )
        assert rep.verdict == "reject"
        assert rep.sub_reports[0].verdict == "reject"

    def test_single_cell_partition_accepts(self):
        rng = np.random.default_rng(9)
        rep = partition_meta_test(rng.random(50), 0.05, kind="si", max_depth=0)
        assert rep.verdict == "accept"
        assert rep.sub_reports == [] and rep.provider == "ideal-r"

    @pytest.mark.parametrize("kind", ["si", "id"])
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0)])
    def test_sub_reports_are_the_finite_tests_on_each_partition(self, kind, lo, hi):
        # oracle: quantize afresh at every depth and run the finite test at
        # level alpha * w_i; cell edges and their neighbours are where the
        # shifted finest cell could leave the depth-i cell
        max_depth, alpha = 5, 0.05
        edges = Partition(lo, hi, max_depth).edges()
        data = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            np.random.default_rng(29).uniform(lo, hi, size=300) ** 3,
        ])
        data = data[(data >= lo) & (data < hi)]
        w = hi - lo
        null = PiecewiseConstantDensity((lo, lo + 0.3 * w, hi), (0.5 / (0.3 * w), 0.5 / (0.7 * w)))
        rep = partition_meta_test(data, alpha, kind=kind, max_depth=max_depth,
                                  domain=(lo, hi), null_density=null)
        assert len(rep.sub_reports) == max_depth
        for i, sub in enumerate(rep.sub_reports, start=1):
            partition = Partition(lo, hi, i)
            cells = quantize(data, partition)
            level = alpha * order_weight(i)
            if kind == "si":
                expected = serial_independence_test(cells, 0, level)
            else:
                probs = np.array([null.integral(*partition.cell_bounds(c))
                                  for c in range(partition.cells)])
                probs /= probs.sum()
                expected = identity_test(cells, MarkovSource.iid(cells.alphabet, probs),
                                         level)
            assert sub == expected

    def test_levels_sum_within_alpha(self):
        alpha = 0.05
        total = sum(alpha * order_weight(i) for i in range(1, 200))
        assert total <= alpha + 1e-12

    def test_identity_kind_uniform_null(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)  # exact cells need no quadrature
        rng = np.random.default_rng(11)
        null = PiecewiseConstantDensity.uniform(0.0, 1.0)
        rep = partition_meta_test(
            rng.random(300), 0.05, kind="id", max_depth=3, null_density=null
        )
        assert rep.verdict == "accept"
        assert rep.test == "partition-id"

    def test_identity_kind_detects_wrong_null(self):
        rng = np.random.default_rng(13)
        data = rng.random(4000) ** 3  # heavily skewed toward 0
        null = PiecewiseConstantDensity.uniform(0.0, 1.0)
        rep = partition_meta_test(
            data, 0.01, kind="id", max_depth=3, null_density=null
        )
        assert rep.verdict == "reject"

    def test_callable_null_density_quadrature(self):
        rng = np.random.default_rng(17)
        rep = partition_meta_test(
            rng.random(200), 0.05, kind="id", max_depth=2,
            null_density=lambda x: 1.0,
        )
        assert rep.verdict == "accept"

    def test_callable_null_density_without_scipy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ImportError, match=r"'quad' extra"):
            partition_meta_test(np.random.default_rng(17).random(200), 0.05,
                                kind="id", max_depth=2, null_density=lambda x: 1.0)

    def test_si_kind_restricted_to_order_zero(self):
        rng = np.random.default_rng(19)
        rep = partition_meta_test(rng.random(100), 0.05, kind="si", max_depth=2)
        for sub in rep.sub_reports:
            assert sub.order == 0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            partition_meta_test([0.5], 0.05, kind="bogus")

    def test_null_pricing_past_t_log2_cells_still_runs_every_depth(self):
        # -log2 null(x) is not bounded by t * log2(cells): five values where
        # the null density is 2e-9 cost about 29 bits each, though t * i = 5
        # lies below the depth-1 threshold of 5.8 bits
        null = PiecewiseConstantDensity((0.0, 0.5, 1.0), (2e-9, (1 - 1e-9) / 0.5))
        rep = partition_meta_test([0.1, 0.2, 0.05, 0.15, 0.12], 0.05, kind="id",
                                  max_depth=4, null_density=null)
        assert rep.sub_reports[0].threshold_bits > 5
        assert len(rep.sub_reports) == 4 and all(s.rejected for s in rep.sub_reports)
        assert rep.verdict == "reject" and rep.statistic_bits > 100

    @pytest.mark.parametrize("kind", ["si", "id"])
    def test_empty_data_is_refused(self, kind):
        with pytest.raises(ValueError, match="at least one value"):
            partition_meta_test([], 0.05, kind=kind,
                                null_density=PiecewiseConstantDensity.uniform(0.0, 1.0))

    def test_out_of_domain_value(self):
        from uctseries.realvalued import DomainError

        with pytest.raises(DomainError):
            partition_meta_test([0.5, 1.5], 0.05, kind="si", max_depth=2)


class TestCellProbs:
    @pytest.mark.parametrize("depth, nulls", [(1, 60), (3, 60), (8, 60), (12, 6)])
    def test_equal_to_the_integral_of_every_cell(self, monkeypatch, depth, nulls):
        # breakpoints on cell edges and between them, and supports that
        # fill the domain or leave empty cells at either end
        monkeypatch.setitem(sys.modules, "scipy", None)  # exact cells need no quadrature
        rng = np.random.default_rng(depth)
        for trial in range(nulls):
            lo, hi = [(0.0, 1.0), (-1.0, 2.0), (-3.5, 0.25)][trial % 3]
            partition = Partition(lo, hi, depth)
            edges = partition.edges()
            pieces = int(rng.integers(1, 30))
            inner = np.where(rng.random(pieces + 1) < 0.5,
                             rng.choice(edges, size=pieces + 1),
                             rng.uniform(lo, hi, size=pieces + 1))
            if trial % 2:
                inner[[0, -1]] = lo, hi
            bp = np.unique(inner)
            if bp.size < 2:
                continue
            values = rng.random(bp.size - 1) * (rng.random(bp.size - 1) < 0.8)
            if not values.any():
                values[0] = 1.0
            values /= (np.diff(bp) * values).sum()
            null = PiecewiseConstantDensity(tuple(bp.tolist()), tuple(values.tolist()))
            want = np.array([null.integral(*partition.cell_bounds(c))
                             for c in range(partition.cells)])
            assert np.array_equal(_cell_probs(null, partition), want / want.sum())


def _samples(rng, alphabet, lengths):
    return [SymbolSeq(alphabet, np.minimum(rng.geometric(0.5, size=n) - 1, alphabet.size - 1))
            for n in lengths]


class TestBatchedTests:
    @pytest.mark.parametrize("size", [1, 2, 3, 256])
    def test_entropy_totals_equal_empirical_entropy(self, size):
        rng = np.random.default_rng(size)
        for k in range(4):
            samples = _samples(rng, Alphabet.of_size(size),
                               [k + 1, k + 2, *rng.integers(k + 1, 80, size=8)])
            x = MultiSample(samples)
            got = _entropy_totals(x.symbols, x.lengths, size, k)
            want = [empirical_entropy(s, k).window_count * empirical_entropy(s, k).value
                    for s in samples]
            assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.9])
    def test_verdicts_equal_the_per_call_tests(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        sticky = MarkovSource(BINARY, 1, [[0.9, 0.1], [0.2, 0.8]])
        uniform = MarkovSource.uniform(BINARY)
        samples = [(sticky if i % 2 else uniform).sample(int(rng.integers(3, 90)), rng)
                   for i in range(40)]
        x = MultiSample(samples)
        null = MarkovSource.iid(BINARY, [0.55, 0.45])
        for max_order in (1, 16):
            provider = ideal_r_provider(max_order)
            got = _identity_rejections(x, null, alpha, max_order)
            want = [identity_test(s, null, alpha, provider).rejected for s in samples]
            assert got.tolist() == want and 0 < sum(want) < len(want)
            for m in (0, 2):
                got = _independence_rejections(x, m, alpha, max_order)
                want = [serial_independence_test(s, m, alpha, provider).rejected
                        for s in samples]
                assert got.tolist() == want
        # sorted values are serially dependent
        trials = [np.sort(rng.random(n)) if i % 2 else rng.random(n)
                  for i, n in enumerate(rng.integers(1, 200, size=30).tolist())]
        got = _partition_si_rejections(trials, alpha, 5, (0.0, 1.0), 16)
        want = [partition_meta_test(data, alpha, "si", 5).rejected for data in trials]
        assert got.tolist() == want and 0 < sum(want) < len(want)

    def test_zero_probability_samples_reject(self):
        null = MarkovSource(BINARY, 1, [[1.0, 0.0], [0.5, 0.5]], initial=[0.5, 0.5])
        samples = [seq("0000"), seq("0100"), seq("1111"), seq("1")]
        got = _identity_rejections(MultiSample(samples), null, 0.05)
        assert got.tolist() == [identity_test(s, null, 0.05).rejected for s in samples]
        assert got.tolist() == [False, True, False, False]
        every = MultiSample([seq("01"), seq("001")])
        assert _identity_rejections(every, null, 0.05).tolist() == [True, True]

    def test_short_sample_is_the_entropy_error(self):
        x = MultiSample([seq("0110"), seq("01")])
        with pytest.raises(ValueError, match="longer than the order k=2"):
            empirical_entropy(x, 2)
        with pytest.raises(ValueError, match="longer than the order k=2"):
            _independence_rejections(x, 2, 0.05)

    def test_empty_partition_trial_is_refused(self):
        with pytest.raises(ValueError, match="at least one value"):
            _partition_si_rejections([np.array([0.5]), np.array([])], 0.05)


class TestReportSerialization:
    def test_infinities_clamped(self):
        rep = Report(
            test="identity", alpha=0.05, statistic_bits=math.inf,
            threshold_bits=4.3, verdict="reject", provider="ideal-r",
            order=0, lengths=[4],
        )
        d = rep.to_dict()
        assert math.isfinite(d["statistic_bits"])
        json.dumps(d)
