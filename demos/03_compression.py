"""The measure as a working compressor: arithmetic coding round trips.

Any strictly positive sequential measure turns into a real code through
arithmetic coding, with at most a couple of bits of overhead beyond the
ideal codelength -log2 mu(x).  General-purpose compressors slot into the
same codelength interface for the hypothesis tests.
"""

import math
import shutil

import numpy as np

from uctseries import (
    Alphabet,
    ExternalCompressor,
    MarkovSource,
    MixtureEstimator,
    SymbolSeq,
    arithmetic_decode,
    arithmetic_encode,
    r_log2prob,
)

binary = Alphabet.of_size(2)
rng = np.random.default_rng(1)

print("=== Round trip with the mixture model ===")
chain = MarkovSource(binary, 1, [[0.9, 0.1], [0.2, 0.8]])
x = chain.sample(2000, rng)
payload, nbits = arithmetic_encode(x, MixtureEstimator(binary))
decoded = arithmetic_decode(payload, len(x), MixtureEstimator(binary), binary)
assert (decoded.symbols == x.symbols).all()
ideal = -r_log2prob(x)
print(f"  {len(x)} symbols -> {nbits} bits "
      f"(ideal {ideal:.1f}, overhead {nbits - ideal:.2f} bits)")
print(f"  entropy rate of the source: {chain.entropy_rate():.4f} bits/letter")
print(f"  achieved: {nbits / len(x):.4f} bits/letter")

print()
print("=== Codelength bound holds symbol by symbol ===")
for trial in range(5):
    t = int(rng.integers(1, 60))
    probs = rng.dirichlet([1, 1, 1])
    alpha3 = Alphabet.of_size(3)
    y = SymbolSeq(alpha3, rng.choice(3, size=t, p=probs))

    class Model:
        def conditional_probs(self):
            return probs

        def append(self, a):
            pass

        def new_sample(self):
            pass

    payload, bits = arithmetic_encode(y, Model())
    ideal = -float(np.log2(probs[y.symbols]).sum())
    print(f"  t = {t:2d}: emitted {bits:3d} bits, bound {math.ceil(ideal) + 2:3d}")
    assert bits <= math.ceil(ideal) + 2

print()
print("=== External compressors as codelength providers ===")
constant = SymbolSeq(binary, np.zeros(10_000, dtype=np.int64))
random_bits = SymbolSeq(binary, rng.integers(0, 2, size=10_000))
cmd = "gzip -c" if shutil.which("gzip") else None
if cmd:
    for name, data in (("constant", constant), ("random", random_bits)):
        bits = ExternalCompressor(cmd).codelength(data)
        print(f"  gzip on {name:8s} input: {bits:8.0f} bits "
              f"({bits / len(data):.3f} bits/symbol)")
else:
    print("  (gzip not available here)")
