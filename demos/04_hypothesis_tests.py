"""Compression-based hypothesis testing: identity and serial independence.

If a code compresses the data more than log2(1/alpha) bits below the
null's own codelength, reject: the chance of that happening under the
null is at most alpha, whatever the code.  Universal codes make the
tests consistent against every stationary ergodic alternative.
"""

import numpy as np

from uctseries import (
    Alphabet,
    MarkovSource,
    SymbolSeq,
    identity_test,
    partition_meta_test,
    serial_independence_test,
    sign_process_generate,
)

binary = Alphabet.of_size(2)
rng = np.random.default_rng(3)


def show(tag, rep):
    print(f"  {tag}: statistic {rep.statistic_bits:9.2f} bits vs threshold "
          f"{rep.threshold_bits:5.2f} -> {rep.verdict}")


print("=== Identity (goodness of fit) ===")
uniform = MarkovSource.uniform(binary)
fair = uniform.sample(10_000, rng)
biased = MarkovSource.iid(binary, [0.55, 0.45]).sample(10_000, rng)
show("fair data vs fair null   ", identity_test(fair, uniform, 0.01))
show("55/45 data vs fair null  ", identity_test(biased, uniform, 0.01))

print()
print("=== Serial independence ===")
iid = uniform.sample(10_000, rng)
sticky = MarkovSource(binary, 1, [[0.7, 0.3], [0.3, 0.7]]).sample(10_000, rng)
show("i.i.d. data,   order 0   ", serial_independence_test(iid, 0, 0.01))
show("sticky chain,  order 0   ", serial_independence_test(sticky, 0, 0.01))
show("sticky chain,  order 1   ", serial_independence_test(sticky, 1, 0.01))

print()
print("=== Type I error stays below alpha ===")
alpha, trials = 0.05, 400
rejections = 0
for _ in range(trials):
    x = uniform.sample(200, rng)
    if serial_independence_test(x, 0, alpha).rejected:
        rejections += 1
print(f"  {rejections}/{trials} rejections of true i.i.d. data at alpha = {alpha}")

print()
print("=== Real-valued data through partitions ===")
smooth = rng.random(4000)
dependent = sign_process_generate(0.35, 4000, seed=9)
rep = partition_meta_test(smooth, 0.05, kind="si", max_depth=4)
print(f"  uniform i.i.d. reals: {rep.verdict} "
      f"({len(rep.sub_reports)} partitions checked)")
rep = partition_meta_test(dependent, 0.05, kind="si", max_depth=4,
                          domain=(-1.0, 1.0))
print(f"  sign-correlated process: {rep.verdict} "
      f"(first partition already rejects: {rep.sub_reports[0].verdict})")
