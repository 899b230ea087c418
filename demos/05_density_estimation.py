"""Nonparametric density estimation for bounded real-valued series.

Quantize at every dyadic depth at once, run a finite-alphabet mixture
per depth, and weight the depths: the resulting density estimate needs
neither a bin width nor a memory length, and its log-loss converges to
the source's relative entropy rate.
"""

import math

import numpy as np

from uctseries import (
    DensityEstimator,
    conditional_density,
    density_log2,
    event_probability,
    sign_process_generate,
)

rng = np.random.default_rng(5)

print("=== Log-loss on a process with sign-dependent density ===")
alpha = 0.4
hi, lo = 0.5 + alpha, 0.5 - alpha
h_rate = -(hi * math.log2(hi) + lo * math.log2(lo))
print(f"  true relative entropy rate: {h_rate:.5f} bits/value")
for t in (1000, 10_000, 100_000):
    data = sign_process_generate(alpha, t, seed=7)
    bits = -density_log2(data, -1.0, 1.0, max_depth=4) / t
    print(f"  t = {t:6d}: {bits:.5f} bits/value")

print()
print("=== Conditional density after a positive value ===")
data = sign_process_generate(alpha, 20_000, seed=11)
hist = data if data[-1] >= 0 else data[:-1]
est = DensityEstimator(-1.0, 1.0, max_depth=4).consume(hist)
p_neg = est.conditional().integral(-1.0, 0.0)
print(f"  learned P(next < 0 | last value >= 0) = {p_neg:.4f}  (true 0.9)")
for point in (-0.5, 0.5):
    d = 2 ** est.conditional_log2_density(point)
    print(f"  estimated density at {point:+.1f}: {d:.4f}  "
          f"(true {hi if point < 0 else lo:.1f})")

print()
print("=== Events and expectations under the estimate ===")
uniform_hist = rng.random(10_000)
est = DensityEstimator(0.0, 1.0, max_depth=4).consume(uniform_hist)
cond = est.conditional()
p_half = cond.integral(0.0, 0.5)
mean = cond.expectation([0.0, 1.0], [0.0, 1.0])
print(f"  uniform history: P(next < 1/2) = {p_half:.4f}, E[next] = {mean:.4f}")

print()
print("=== The estimate is a proper density over the domain ===")
total = event_probability([(-1.0, 1.0)], data[:500], -1.0, 1.0, max_depth=4)
print(f"  conditional integrates to {total:.9f} over [-1, 1)")
x_next = float(data[500])
print(f"  log2 conditional density of the actual next value: "
      f"{conditional_density(x_next, data[:500], -1.0, 1.0, max_depth=4):.3f}")
