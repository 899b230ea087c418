"""Acceptance suite: one test per release criterion, stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Expected values marked as derived were computed with the
independent oracles defined in this file (enumeration, brute-force window
scans, closed forms), never with the code paths under test.
"""

import math
from itertools import product
from math import lgamma, log2

import numpy as np
import pytest
from scipy.special import gammaln

from uctseries.coding import arithmetic_decode, arithmetic_encode, ideal_r_provider
from uctseries.estimators import (
    KtState,
    MarkovSource,
    MixtureEstimator,
    kt_log2prob,
    laplace_log2prob,
    r_cond_log2prob,
    r_log2prob,
)
from uctseries.realvalued import density_log2, sign_process_generate
from uctseries.seqmodel import Alphabet, MultiSample, SymbolSeq
from uctseries.estimators import _r_log2prob_each
from uctseries.testing import (
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


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Golden values


def test_criterion_01_golden_values():
    checks = []

    def close(tag, got, want, tol):
        checks.append((tag, abs(got - want) <= tol, got, want))

    close("L(01010)", 2 ** laplace_log2prob(seq("01010")), 1 / 60, 1e-12)
    close("L(010101)", 2 ** laplace_log2prob(seq("010101")), 1 / 140, 1e-12)
    close("K0(01010)", 2 ** kt_log2prob(seq("01010"), 0), 3 / 256, 1e-12)
    st = KtState(BINARY, 0).consume(seq("01010"))
    close("K0(0|01010)", 2 ** st.conditional_log2prob(0), 7 / 12, 1e-12)
    close("R(00)", 2 ** r_log2prob(seq("00")), 0.296, 5e-4)
    close("R(01)", 2 ** r_log2prob(seq("01")), 0.204, 5e-4)
    close("R(11)", 2 ** r_log2prob(seq("11")), 0.296, 5e-4)
    ms = MultiSample([seq("0101"), seq("101")])
    close("K0(2-sample)", 2 ** kt_log2prob(ms, 0), 0.00244, 5e-4)
    close("K1(2-sample)", 2 ** kt_log2prob(ms, 1), 0.0293, 5e-4)
    close("K2(2-sample)", 2 ** kt_log2prob(ms, 2), 0.01172, 5e-4)
    for i in (3, 4, 6):
        close(f"K{i}(2-sample)", 2 ** kt_log2prob(ms, i), 2.0 ** -7, 1e-15)
    close("R(2-sample)", 2 ** r_log2prob(ms), 0.0089, 5e-4)
    close("R(01|2-sample)", 2 ** r_cond_log2prob([0, 1], ms), 0.32812, 1e-3)

    bad = [c for c in checks if not c[1]]
    report(
        "C1 golden-values",
        not bad,
        f"{len(checks)} paper values" if not bad else f"failing: {bad}",
    )


# ---------------------------------------------------------------------------
# 2. Normalization by enumeration


def test_criterion_02_normalization_enumeration():
    measures = {
        "laplace": laplace_log2prob,
        "kt-m0": lambda x: kt_log2prob(x, 0),
        "kt-m1": lambda x: kt_log2prob(x, 1),
        "kt-m2": lambda x: kt_log2prob(x, 2),
        "mixture": r_log2prob,
    }
    worst = 0.0
    for name, fn in measures.items():
        for t in range(1, 7):
            total = sum(
                2.0 ** fn(SymbolSeq(BINARY, list(xs)))
                for xs in product(range(2), repeat=t)
            )
            worst = max(worst, abs(total - 1.0))
    report("C2 normalization", worst <= 1e-9, f"max |sum-1| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Add-one predictor expected error bound (exact enumeration)


def exact_stepwise_kl_addone(probs, t):
    """Oracle: expected per-step KL of the add-one rule after t letters,
    by full enumeration of all strings of length t."""
    size = len(probs)
    total = 0.0
    for xs in product(range(size), repeat=t):
        px = 1.0
        counts = [0] * size
        for s in xs:
            px *= probs[s]
            counts[s] += 1
        if px == 0.0:
            continue
        step = sum(
            probs[a] * log2(probs[a] * (t + size) / (counts[a] + 1))
            for a in range(size)
            if probs[a] > 0
        )
        total += px * step
    return total


def test_criterion_03_addone_error_bound():
    sources = {
        2: [(0.5, 0.5), (0.7, 0.3), (0.9, 0.1)],
        3: [(1 / 3, 1 / 3, 1 / 3), (0.6, 0.3, 0.1)],
    }
    worst = -math.inf
    for size, plist in sources.items():
        for probs in plist:
            for t in range(0, 9):
                kl = exact_stepwise_kl_addone(probs, t)
                bound = (size - 1) * math.log2(math.e) / (t + 1)
                worst = max(worst, kl - bound)
    report("C3 add-one-bound", worst <= 1e-12, f"max (error - bound) = {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Add-half redundancy decay


def _addhalf_redundancy_binary(p0, t, trials, rng):
    """Monte Carlo per-letter redundancy of the order-0 add-half rule.

    Sequences enter only through their counts, so sampling binomial
    counts is an exact reformulation of sequence sampling.
    """
    k = rng.binomial(t, p0, size=trials).astype(float)
    logp = k * log2(p0) + (t - k) * log2(1 - p0)
    logk0 = (
        gammaln(k + 0.5) + gammaln(t - k + 0.5) - 2 * gammaln(0.5)
        - gammaln(t + 1.0)
    ) / math.log(2)
    return float(np.mean(logp - logk0) / t)


def test_criterion_04_addhalf_redundancy_decay():
    rng = np.random.default_rng(2024)
    ts = np.array([2 ** 6, 2 ** 8, 2 ** 10, 2 ** 12])
    ok = True
    details = []
    for p0 in (0.5, 0.7, 0.9):
        vals = np.array(
            [_addhalf_redundancy_binary(p0, int(t), 4000, rng) for t in ts]
        )
        envelope = (np.log2(ts) + 4) / (2 * ts)
        below = bool((vals < envelope).all()) and bool((vals > 0).all())
        basis = np.column_stack([np.log2(ts) / (2 * ts), 1.0 / ts])
        coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        fitted = basis @ coef
        rel = np.abs(fitted - vals) / vals
        fits = bool((rel < 0.10).all())
        ok = ok and below and fits
        details.append(f"p0={p0}: maxrel={rel.max():.3f} below={below}")
    report("C4 addhalf-redundancy", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Product-measure entropy bound, randomized suite


def test_criterion_05_product_measure_bound():
    rng = np.random.default_rng(17)
    violations = 0
    for _ in range(10_000):
        size = int(rng.integers(2, 4))
        m = int(rng.integers(0, 3))
        alphabet = Alphabet.of_size(size)
        table = rng.dirichlet(np.ones(size), size=size ** m)
        theta = MarkovSource(alphabet, m, table)
        r = int(rng.integers(1, 4))
        samples = [theta.sample(int(rng.integers(m + 1, 14)), rng) for _ in range(r)]
        ms = MultiSample(samples)
        ent = empirical_entropy(ms, m)
        lhs = theta.log2prob(ms)
        rhs = -(ms.total_length - r * m) * ent.value
        if lhs > rhs + 1e-9:
            violations += 1
    report("C5 entropy-bound", violations == 0, f"{violations} violations in 10000")


# ---------------------------------------------------------------------------
# 6. Type I error of all three tests


def _bound(alpha, n):
    return alpha + 3 * math.sqrt(alpha * (1 - alpha) / n)


def test_criterion_06_type1_guarantees():
    # every trial's statistic comes from the batched tests, which count each
    # order once over all trials
    n = 2000
    t = 256
    rng = np.random.default_rng(99)
    provider = ideal_r_provider()
    uniform = MarkovSource.uniform(BINARY)
    x = MultiSample([uniform.sample(t, rng) for _ in range(n)])
    t_meta = 128
    depths = 4
    meta_data = [rng.random(t_meta) for _ in range(n)]

    # tie the batched statistics to the real test functions on a subset
    rng_check = np.random.default_rng(1234)
    check, check_data = [], []
    for _ in range(20):
        check.append(uniform.sample(t, rng_check))
        check_data.append(rng_check.random(t_meta))
    check_x = MultiSample(check)
    log2r = _r_log2prob_each(check_x.symbols, check_x.lengths, 2)
    for sample, lp in zip(check, log2r):
        rep = identity_test(sample, uniform, 0.05, provider)
        assert rep.statistic_bits == pytest.approx(t + lp, abs=1e-9)
    for alpha in (0.05, 0.01):
        assert _identity_rejections(check_x, uniform, alpha).tolist() == [
            identity_test(s, uniform, alpha, provider).rejected for s in check]
        assert _independence_rejections(check_x, 0, alpha).tolist() == [
            serial_independence_test(s, 0, alpha, provider).rejected for s in check]
        assert _partition_si_rejections(check_data, alpha, depths).tolist() == [
            partition_meta_test(d, alpha, kind="si", max_depth=depths).rejected
            for d in check_data]

    ok = True
    details = []
    for alpha in (0.05, 0.01):
        id_rate = float(np.mean(_identity_rejections(x, uniform, alpha)))
        si_rate = float(np.mean(_independence_rejections(x, 0, alpha)))
        meta_rate = float(np.mean(_partition_si_rejections(meta_data, alpha, depths)))
        b = _bound(alpha, n)
        good = id_rate <= b and si_rate <= b and meta_rate <= b
        ok = ok and good
        details.append(
            f"alpha={alpha}: id={id_rate:.4f} si={si_rate:.4f} "
            f"meta={meta_rate:.4f} bound={b:.4f}"
        )
    report("C6 type1", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Power at desk scale


def test_criterion_07_power():
    trials = 100
    t = 10_000
    alpha = 0.01
    rng = np.random.default_rng(7)
    uniform = MarkovSource.uniform(BINARY)
    biased = MarkovSource.iid(BINARY, [0.9, 0.1])
    provider = ideal_r_provider()

    id_rejects = 0
    for _ in range(trials):
        x = biased.sample(t, rng)
        if identity_test(x, uniform, alpha, provider).rejected:
            id_rejects += 1
    id_rate = id_rejects / trials

    sticky = MarkovSource(BINARY, 1, [[0.9, 0.1], [0.1, 0.9]])
    si_rejects = 0
    from uctseries.testing import serial_independence_test

    for _ in range(trials):
        x = sticky.sample(t, rng)
        if serial_independence_test(x, 0, alpha, provider).rejected:
            si_rejects += 1
    si_rate = si_rejects / trials

    ok = id_rate >= 0.99 and si_rate >= 0.9
    report("C7 power", ok, f"identity={id_rate:.2f} (>=0.99) si={si_rate:.2f} (>=0.9)")


# ---------------------------------------------------------------------------
# 8. Codec round trips, length bound, Kraft sum


def test_criterion_08_codec():
    rng = np.random.default_rng(123)

    class IidModel:
        def __init__(self, probs):
            self.probs = np.asarray(probs)

        def conditional_probs(self):
            return self.probs

        def append(self, a):
            pass

        def new_sample(self):
            pass

    failures = 0
    bound_violations = 0
    for _ in range(1000):
        size = int(rng.integers(2, 9))
        alphabet = Alphabet.of_size(size)
        probs = rng.dirichlet(np.full(size, 0.5))
        t = int(rng.integers(0, 80))
        x = SymbolSeq(alphabet, rng.choice(size, size=t, p=probs))
        payload, nbits = arithmetic_encode(x, IidModel(probs))
        out = arithmetic_decode(payload, t, IidModel(probs), alphabet)
        if (out.symbols != x.symbols).any():
            failures += 1
        with np.errstate(divide="ignore"):
            ideal = float(-np.log2(probs[x.symbols]).sum()) if t else 0.0
        if nbits > math.ceil(ideal) + 2:
            bound_violations += 1

    kraft_ok = True
    worst_kraft = 0.0
    for t in range(1, 7):
        total = 0.0
        for xs in product(range(2), repeat=t):
            x = SymbolSeq(BINARY, list(xs))
            _, nbits = arithmetic_encode(x, MixtureEstimator(BINARY))
            total += 2.0 ** -nbits
        worst_kraft = max(worst_kraft, total)
        kraft_ok = kraft_ok and total <= 1.0 + 1e-12

    ok = failures == 0 and bound_violations == 0 and kraft_ok
    report(
        "C8 codec",
        ok,
        f"roundtrip failures={failures}, bound violations={bound_violations}, "
        f"max Kraft sum={worst_kraft:.6f}",
    )


# ---------------------------------------------------------------------------
# 9. Per-letter codelength approaches the entropy rate


def test_criterion_09_universality_surrogate():
    q = 0.8
    src = MarkovSource(BINARY, 1, [[q, 1 - q], [1 - q, q]])
    h = -(q * log2(q) + (1 - q) * log2(1 - q))  # closed form
    x = src.sample(100_000, np.random.default_rng(11))
    bits = -r_log2prob(x) / len(x)
    gap = abs(bits - h)
    report("C9 universality", gap <= 0.05, f"|bits/letter - h| = {gap:.4f} (h={h:.4f})")


# ---------------------------------------------------------------------------
# 10. Density log-loss on the sign process


def test_criterion_10_density_log_loss():
    alpha = 0.4
    hi, lo = 0.5 + alpha, 0.5 - alpha
    h_oracle = -(hi * log2(hi) + lo * log2(lo))  # = 0.46899559358928817
    data = sign_process_generate(alpha, 100_000, seed=5)
    bits = -density_log2(data, -1.0, 1.0, max_depth=4) / data.size
    gap = abs(bits - h_oracle)
    report(
        "C10 density-log-loss",
        gap <= 0.1,
        f"|bits/value - h~| = {gap:.4f} (h~={h_oracle:.5f})",
    )
