import math

import numpy as np
import pytest

from uctseries.estimators import order_weight
from uctseries.realvalued import (
    DensityEstimator,
    DomainError,
    Partition,
    PiecewiseConstantDensity,
    conditional_density,
    density_log2,
    event_probability,
    expectation,
    quantize,
    sign_process_generate,
)

# closed-form relative entropy rate of the sign process: the conditional
# density takes the two values 1/2 +- alpha on unit-length halves
def sign_entropy_rate(alpha):
    hi, lo = 0.5 + alpha, 0.5 - alpha
    return -(hi * math.log2(hi) + lo * math.log2(lo))


class TestPartition:
    def test_midpoint_split(self):
        p = Partition(0.0, 1.0, 1)
        assert p.cell_index([0.3]).tolist() == [0]
        assert p.cell_index([0.7]).tolist() == [1]

    def test_depth_zero_single_cell(self):
        p = Partition(0.0, 1.0, 0)
        assert p.cells == 1
        assert p.cell_index([0.0, 0.999]).tolist() == [0, 0]

    def test_cell_arithmetic(self):
        p = Partition(0.0, 1.0, 3)
        assert p.cell_index([0.625]).tolist() == [5]

    def test_upper_bound_rejected(self):
        p = Partition(0.0, 1.0, 2)
        with pytest.raises(DomainError, match="index 1"):
            p.cell_index([0.5, 1.0])

    def test_depth_must_fit_int64_cells(self):
        assert Partition(0.0, 1.0, 62).cell_index([0.5]).tolist() == [1 << 61]
        for depth in (-1, 63):
            with pytest.raises(ValueError, match="depth"):
                Partition(0.0, 1.0, depth)

    @pytest.mark.parametrize("lower, upper", [
        (-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
    ])
    def test_bounds_must_be_finite(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            Partition(lower, upper, 2)

    def test_nan_rejected_by_index(self):
        with pytest.raises(DomainError, match="nan at index 2 "):
            Partition(0.0, 1.0, 3).cell_index([0.1, 0.5, math.nan, 0.2])

    def test_below_lower_rejected(self):
        with pytest.raises(DomainError):
            Partition(0.0, 1.0, 2).cell_index([-0.01])

    def test_cell_bounds_tile_domain(self):
        p = Partition(-1.0, 1.0, 3)
        edges = p.edges()
        assert edges[0] == -1.0 and edges[-1] == 1.0
        widths = np.diff(edges)
        assert np.allclose(widths, p.cell_measure)

    def test_refinement_coherence(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, size=200)
        for s in range(4):
            coarse = Partition(-1.0, 1.0, s).cell_index(xs)
            fine = Partition(-1.0, 1.0, s + 1).cell_index(xs)
            assert (fine // 2 == coarse).all()

    @pytest.mark.parametrize("lower,upper", [
        (0.0, 1.0), (-1.0, 1.0), (0.1, 0.7), (-3.3, 1e-3), (1e6, 1e6 + 3.7),
        (-1e-9, 2e-9),
    ])
    def test_finest_cell_shifted_is_coarse_cell(self, lower, upper):
        # the quantizers read each value once, at the finest depth, and
        # shift; every cell edge, its float neighbours and the last value
        # below the upper bound are where rounding could break that
        depth = 10
        edges = Partition(lower, upper, depth).edges()
        xs = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [lower, np.nextafter(upper, lower)],
            np.random.default_rng(11).uniform(lower, upper, size=2000),
        ])
        xs = xs[(xs >= lower) & (xs < upper)]
        finest = Partition(lower, upper, depth).cell_index(xs)
        for s in range(depth + 1):
            coarse = Partition(lower, upper, s).cell_index(xs)
            assert (finest >> (depth - s) == coarse).all()


class TestQuantize:
    def test_returns_symbolseq_over_cell_alphabet(self):
        q = quantize([0.1, 0.6], Partition(0.0, 1.0, 1))
        assert q.alphabet.size == 2
        assert q.symbols.tolist() == [0, 1]

    def test_depth_zero_all_zero(self):
        q = quantize([0.2, 0.9], Partition(0.0, 1.0, 0))
        assert q.symbols.tolist() == [0, 0]


class TestDensityEstimate:
    def test_single_value_depth_zero(self):
        # one-cell partition on [0,1): only the first weight survives
        assert 2 ** density_log2([0.3], 0.0, 1.0, max_depth=0) == pytest.approx(
            order_weight(1), abs=1e-12
        )

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, size=60)
        for renormalize in (False, True):
            est = DensityEstimator(0.0, 1.0, max_depth=3,
                                   renormalize=renormalize).consume(xs)
            assert est.log2_density == pytest.approx(
                density_log2(xs, 0.0, 1.0, max_depth=3, renormalize=renormalize),
                abs=1e-9,
            )

    def test_mixture_lower_bound(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1, 1, size=40)
        est = DensityEstimator(-1.0, 1.0, max_depth=4).consume(xs)
        total = est.log2_density
        for term in est.depth_log2_terms():
            assert total >= term - 1e-9

    def test_integrates_to_weight_total(self):
        # joint density over one value integrates to the weight sum
        grid_terms = []
        edges = Partition(0.0, 1.0, 6).edges()
        for i in range(64):
            mid = (edges[i] + edges[i + 1]) / 2
            grid_terms.append(2 ** density_log2([mid], 0.0, 1.0, max_depth=3) / 64)
        total = sum(grid_terms)
        expected = sum(order_weight(s + 1) for s in range(4))
        assert total == pytest.approx(expected, abs=1e-9)

    def test_renormalized_integrates_to_one(self):
        edges = Partition(0.0, 1.0, 6).edges()
        total = 0.0
        for i in range(64):
            mid = (edges[i] + edges[i + 1]) / 2
            total += 2 ** density_log2(
                [mid], 0.0, 1.0, max_depth=3, renormalize=True
            ) / 64
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_uniform_data_bits_go_to_zero(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 1, size=20_000)
        bits = -density_log2(xs, 0.0, 1.0, max_depth=4) / xs.size
        assert bits == pytest.approx(0.0, abs=0.05)

    def test_out_of_domain(self):
        for max_depth in (0, 2):
            with pytest.raises(DomainError):
                density_log2([0.5, 1.2], 0.0, 1.0, max_depth=max_depth)
            est = DensityEstimator(0.0, 1.0, max_depth=max_depth).consume([0.5])
            with pytest.raises(DomainError):
                est.append(1.0)
            assert est.t == 1

    @pytest.mark.parametrize("max_depth", [0, 1, 3, 8])
    def test_consume_equals_appending_one_at_a_time(self, max_depth):
        xs = sign_process_generate(0.3, 120, seed=max_depth)
        batch = DensityEstimator(-1.0, 1.0, max_depth).consume(xs[:70]).consume(xs[70:])
        single = DensityEstimator(-1.0, 1.0, max_depth)
        for x in xs:
            single.append(float(x))
        assert batch.t == single.t == xs.size
        assert batch.log2_density == single.log2_density
        assert (batch.conditional_cell_log2densities().tolist()
                == single.conditional_cell_log2densities().tolist())

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_consume_rejects_a_bad_value_before_any_state_changes(self, k):
        est = DensityEstimator(0.0, 1.0, max_depth=3).consume([0.1, 0.7, 0.4])
        before = (est.t, est.log2_density, est.conditional_cell_log2densities().tolist())
        values = [0.2, 0.9, 0.5, 0.3, 0.6]
        values[k] = 1.2
        with pytest.raises(DomainError, match=f"at index {k} "):
            est.consume(values)
        after = (est.t, est.log2_density, est.conditional_cell_log2densities().tolist())
        assert after == before


class TestConditionalDensity:
    def test_empty_history_single_cell_uniform(self):
        # max_depth 0 on [0,1): conditional density is exactly 1
        lp = conditional_density(0.3, [], 0.0, 1.0, max_depth=0)
        assert 2 ** lp == pytest.approx(1.0, abs=1e-12)

    def test_integrates_to_one_exact_cells(self):
        rng = np.random.default_rng(11)
        for t in (0, 5, 25):
            hist = rng.uniform(0, 1, size=t)
            total = event_probability([(0.0, 1.0)], hist, 0.0, 1.0, max_depth=4)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_integrates_to_one_quadrature_oracle(self):
        # trapezoid on a dense grid, independent of the closed-form path
        rng = np.random.default_rng(13)
        hist = rng.uniform(0, 1, size=12)
        grid = np.linspace(0.0, 1.0, 2 ** 12, endpoint=False) + 2.0 ** -13
        dens = np.array(
            [2 ** conditional_density(float(g), hist, 0.0, 1.0, max_depth=3)
             for g in grid[:: 8]]
        )
        total = dens.mean()  # equal-weight midpoint rule on cell-aligned grid
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_sign_process_conditional_tracks_kernel(self):
        data = sign_process_generate(0.4, 3000, seed=3)
        # end the history on a positive value: the next value should be
        # negative with probability 0.9 under the generating kernel
        assert data[-1] >= 0 or data[-2] >= 0
        hist = data if data[-1] >= 0 else data[:-1]
        est = DensityEstimator(-1.0, 1.0, max_depth=3).consume(hist)
        p_neg = est.conditional().integral(-1.0, 0.0)
        assert p_neg == pytest.approx(0.9, abs=0.05)


class TestEventProbability:
    def test_full_domain_is_one(self):
        rng = np.random.default_rng(17)
        hist = rng.uniform(0, 1, size=10)
        assert event_probability([(0.0, 1.0)], hist, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_empty_set_is_zero(self):
        assert event_probability([], [0.5], 0.0, 1.0) == 0.0

    def test_half_interval_on_uniform_data(self):
        rng = np.random.default_rng(19)
        hist = rng.uniform(0, 1, size=10_000)
        p = event_probability([(0.0, 0.5)], hist, 0.0, 1.0, max_depth=4)
        assert p == pytest.approx(0.5, abs=0.02)

    def test_malformed_interval(self):
        with pytest.raises(ValueError):
            event_probability([(0.7, 0.2)], [0.5], 0.0, 1.0)

    def test_outside_domain_interval(self):
        with pytest.raises(DomainError):
            event_probability([(0.5, 1.5)], [0.5], 0.0, 1.0)


class TestPiecewiseConstantDensity:
    def test_expectation_matches_midpoint_sum(self):
        # density breakpoints are multiples of 1/16, so the midpoint grid
        # below never straddles a jump; the function's kinks fall inside
        # grid cells and its table reaches past the support at both ends
        dens = PiecewiseConstantDensity(
            (0.0, 0.125, 0.375, 0.5, 0.8125, 1.0), (0.3, 2.1, 0.0, 1.7, 0.9)
        )
        xs = [-0.4, 0.07, 0.3, 0.61, 1.37]
        ys = [1.5, -2.0, 0.25, 3.0, -1.0]
        n = 1 << 20
        mids = (np.arange(n) + 0.5) / n
        vals = np.asarray(dens.values)[
            np.searchsorted(dens.breakpoints, mids, side="right") - 1
        ]
        oracle = float((np.interp(mids, xs, ys) * vals).sum() / n)
        assert dens.expectation(xs, ys) == pytest.approx(oracle, abs=1e-9)

    def test_estimator_conditional_on_finest_cells(self):
        rng = np.random.default_rng(37)
        est = DensityEstimator(-1.0, 1.0, max_depth=3).consume(rng.uniform(-1, 1, 30))
        cond = est.conditional()
        assert cond.breakpoints == tuple(Partition(-1.0, 1.0, 3).edges().tolist())
        assert cond.values == tuple(
            np.exp2(est.conditional_cell_log2densities()).tolist()
        )
        assert cond.integral(-1.0, 1.0) == pytest.approx(1.0, abs=1e-9)


class TestExpectation:
    def test_constant_function(self):
        rng = np.random.default_rng(23)
        hist = rng.uniform(0, 1, size=30)
        v = expectation([0.0, 1.0], [2.5, 2.5], hist, 0.0, 1.0)
        assert v == pytest.approx(2.5, abs=1e-9)

    def test_identity_function_on_uniform_data(self):
        rng = np.random.default_rng(29)
        hist = rng.uniform(0, 1, size=10_000)
        v = expectation([0.0, 1.0], [0.0, 1.0], hist, 0.0, 1.0, max_depth=4)
        assert v == pytest.approx(0.5, abs=0.02)

    def test_indicator_matches_event_probability(self):
        rng = np.random.default_rng(31)
        hist = rng.uniform(0, 1, size=40)
        est = DensityEstimator(0.0, 1.0, max_depth=4).consume(hist)
        # indicator of [0, 0.5) as a piecewise-linear table with a sharp edge
        eps = 1e-9
        cond = est.conditional()
        v = cond.expectation([0.0, 0.5 - eps, 0.5, 1.0], [1.0, 1.0, 0.0, 0.0])
        p = cond.integral(0.0, 0.5)
        assert v == pytest.approx(p, abs=1e-6)

    def test_table_gap_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            expectation([0.1, 1.0], [1.0, 1.0], [0.5], 0.0, 1.0)

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="bound"):
            expectation([0.0, 1.0], [0.0, 5.0], [0.5], 0.0, 1.0, bound=2.0)


class TestSignProcess:
    def test_flip_frequency(self):
        s = sign_process_generate(0.4, 100_000, seed=0)
        neg = s < 0
        flips = np.mean(neg[1:] != neg[:-1])
        assert flips == pytest.approx(0.9, abs=0.01)

    def test_independent_signs_at_zero_coupling(self):
        s = sign_process_generate(1e-9, 100_000, seed=1)
        neg = s < 0
        flips = np.mean(neg[1:] != neg[:-1])
        assert flips == pytest.approx(0.5, abs=0.01)

    def test_deterministic_per_seed(self):
        a = sign_process_generate(0.3, 1000, seed=42)
        b = sign_process_generate(0.3, 1000, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_range(self):
        s = sign_process_generate(0.25, 5000, seed=2)
        assert s.min() >= -1.0 and s.max() < 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sign_process_generate(0.5, 10)
        with pytest.raises(ValueError):
            sign_process_generate(0.0, 10)

    def test_log_loss_approaches_entropy_rate(self):
        data = sign_process_generate(0.4, 30_000, seed=7)
        bits = -density_log2(data, -1.0, 1.0, max_depth=4) / data.size
        assert bits == pytest.approx(sign_entropy_rate(0.4), abs=0.1)

    def test_log_loss_gap_shrinks_with_length(self):
        h = sign_entropy_rate(0.4)
        gaps = []
        for t in (2000, 16000, 128_000):
            vals = []
            for s in (0, 1, 2):
                data = sign_process_generate(0.4, t, seed=s)
                vals.append(-density_log2(data, -1.0, 1.0, max_depth=4) / t - h)
            gaps.append(np.mean(vals))
        assert gaps[0] > gaps[1] > gaps[2]
